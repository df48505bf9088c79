"""Walk the transform tree and check one edge by hand.

Each node is a doubly bounded polynomial identified by four labels; the two
transforms move the labels and multiply the kernel.  Burge's classic
transforms are the N = 1 case of the level-N ones, and so is the
polynomial: burge_xn at N = 1, with sigma the parity of M1 - M2.  Named
nodes carry a closed form.  build_tree gives the tree's shape; the command
line's tree_verdicts checks each node through its sweep families (its closed
form, then the edge from its parent), and every edge can be replayed at
explicit bounds.
"""

from qident.burge import (
    BurgeParams,
    build_tree,
    burge_xn,
    closed_form,
    transform_trafo,
)
from qident.cli import tree_verdicts
from qident.qpoly import render


def classic_x(labels, m1, l1, m2, l2):
    """Burge's polynomial X_{r,s}^{(p,p')}(m1, l1, m2, l2), the level-N one at N = 1."""
    return burge_xn(BurgeParams(*labels, m1, l1, m2, l2, sigma=(m1 - m2) % 2))


nodes = build_tree(2, 1, 0)
print("depth-2 tree from the seed node:")
for nd, (verified, _, _) in zip(nodes, tree_verdicts(nodes, 2)):
    via = nd.transform_tag or "seed"
    name = nd.closed_form_name or "-"
    print(
        f"  ({nd.p},{nd.pprime},{nd.r},{nd.s})  depth={nd.depth}"
        f"  via={via:5s}  form={name:6s}  verified={verified}"
    )

# replay the seed -> (2,3,1,1) edge at one bound pair: route the child through
# the parent polynomial and compare against evaluating the child directly;
# sigma = 0 because the bounds are symmetric
M = L = 3
routed = transform_trafo(
    1, 0, M, L, M, L,
    lambda m1, l1, m2, l2: classic_x((1, 2, 0, 1), m1, l1, m2, l2),
)
direct = classic_x((2, 3, 1, 1), M, L, M, L)
print()
print(f"edge replay at M=L={M}: routed == direct is {routed == direct}")
print("  value:", render(direct))

print()
print("closed form at the same bounds:", render(closed_form("euler", M, L, 1, 0)))
