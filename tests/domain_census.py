"""Independent census of extended-domain sizes.

`extend_domain` builds its result as a product of permuted domain
copies, pruning as it goes.  This script recounts the same partitions by
brute force: take the union of every permuted comparison atom, then
enumerate all sign assignments of that union and count the satisfiable
ones.  The two routes must agree; the counts printed here are frozen
into test_domain.py.

Run:  python3 tests/domain_census.py
"""

from itertools import permutations, product
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).parent))

from conftest import corpus_program

from termiarith.constraints import is_satisfiable, negate_atom, rename
from termiarith.domain import (
    collect_comparisons,
    infer_comparisons,
    influence_components,
    position_var,
)
from termiarith.graph import find_integer_loops
from termiarith.modes import infer_argument_modes
from termiarith.syntax import QueryPattern


def census(name: str, pred: str, modes_str: str) -> int:
    program = corpus_program(name)
    pattern = QueryPattern(pred, tuple(modes_str))
    modes = infer_argument_modes(program, pattern)
    (loop,) = [l for l in find_integer_loops(program, pattern, modes) if (pred, len(modes_str)) in l.predicates]
    key = (pred, len(modes_str))
    comparisons = collect_comparisons(loop, modes)
    if comparisons is None or not comparisons[key]:
        comparisons = infer_comparisons(loop, modes)
    union = set()
    for component in influence_components(loop, key):
        for perm in permutations(component):
            mapping = {position_var(a): position_var(b) for a, b in zip(component, perm)}
            union |= set(rename(comparisons[key], mapping))
    atoms = sorted(union)
    count = 0
    for signs in product((True, False), repeat=len(atoms)):
        chosen = [a if s else negate_atom(a) for a, s in zip(atoms, signs)]
        if is_satisfiable(chosen):
            count += 1
    print(f"{name} {pred}/{len(modes_str)}: {len(atoms)} permuted atoms, {count} satisfiable regions")
    return count


if __name__ == "__main__":
    census("mod", "mod", "iif")
    census("gcd", "gcd", "iif")
    census("p_difficult", "p", "ii")
