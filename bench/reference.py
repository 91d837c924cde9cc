"""A fixed piece of pure-Python work that measures the host's speed.

run.py launches it every couple of seconds and scales its times by how long
this takes.  It imports nothing from the package under test, so a change to
the package never moves it.  Its work is of the package's kind: a
backtracking search over sets and integer indexing through nested lists.
Prints "ok" when its results are right.
"""

import sys


def queens(n: int) -> int:
    count = 0
    cols: set[int] = set()
    up: set[int] = set()
    down: set[int] = set()

    def place(r: int) -> None:
        nonlocal count
        if r == n:
            count += 1
            return
        for c in range(n):
            if c in cols or r + c in up or r - c in down:
                continue
            cols.add(c), up.add(r + c), down.add(r - c)
            place(r + 1)
            cols.discard(c), up.discard(r + c), down.discard(r - c)

    place(0)
    return count


def table_walk(n: int) -> int:
    t = [[(x * 7 + y * 3) % n for y in range(n)] for x in range(n)]
    total = 0
    for x in range(n):
        row = t[x]
        for y in range(n):
            total += t[row[y]][y]
    return total


if __name__ == "__main__":
    ok = all(queens(8) == 92 for _ in range(8))
    ok &= all(table_walk(400) == 31920000 for _ in range(3))
    print("ok" if ok else "wrong")
    sys.exit(0 if ok else 1)
