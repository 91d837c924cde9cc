"""The properties ``check`` evaluates, as plain data: the CLI reads its
choices here without loading ``properties``, which binds the names."""

# The equational properties, keyed by their ``check`` name: the names of the
# violation and the predicate, and the identities the violation checks in
# turn, returning the first failing tuple of the first that fails.
_IDEMPOTENCE = "a*a=a"
NAMED_IDENTITIES = {
    "idempotent": ("idempotence_violation", "is_idempotent", (_IDEMPOTENCE,)),
    "associative": ("associativity_violation", "is_associative", ("(a*b)*c=a*(b*c)",)),
    "central": ("centrality_violation", "is_central", ("(x*y)*(y*z)=y",)),
    "undirected-eq": ("undirected_eq_violation", "satisfies_undirected_eq",
                      ("(a*b)*(c*a)=a",)),
    "partitioned": ("partitioned_eqs_violation", "satisfies_partitioned_eqs",
                    (_IDEMPOTENCE, "(a*b)*c=a*c")),
    "dually-partitioned": ("dually_partitioned_eqs_violation",
                           "satisfies_dually_partitioned_eqs", (_IDEMPOTENCE, "a*(b*c)=a*c")),
    "left-reabsorption": ("left_reabsorption_violation", "satisfies_left_reabsorption",
                          ("a*(a*b)=a*b",)),
    "right-reabsorption": ("right_reabsorption_violation", "satisfies_right_reabsorption",
                           ("(a*b)*b=a*b",)),
}

# Every property ``check`` evaluates, keyed by its ``check`` name: the model
# its file holds (a ``formats`` parser per model), the name of its
# violation and the name of its predicate.
CHECKS = {
    "rectangular": ("groupoid", "rectangularity_violation", "is_rectangular"),
    "p1": ("groupoid", "p1_violation", "satisfies_p1"),
    "p2": ("graphpair", "p2_violation", "satisfies_p2"),
    "p4": ("matrices", "p4_violation", "satisfies_p4"),
    "matrix-symmetric": ("groupoid", "matrix_symmetry_violation", "is_matrix_symmetric"),
    "full": ("groupoid", "fullness_violation", "is_full"),
    "maximal": ("groupoid", "maximality_violation", "is_maximal"),
    "partial-p1": ("partial", "partial_p1_violation", "is_partial_p1"),
    "partial-latin": ("partial", "partial_latin_violation", "is_partial_latin"),
    "blackburn": ("partial", "blackburn_violation", "has_blackburn"),
    **{name: ("groupoid", violation, predicate)
       for name, (violation, predicate, _) in NAMED_IDENTITIES.items()},
}
