"""Exact boxicity with verifiable certificates.

Run with: python demos/exact_boxicity.py
"""

from boxicity import (
    complement,
    complete_graph,
    complete_multipartite,
    cover_to_box_representation,
    cycle_graph,
    exact_boxicity,
    format_cover,
    gen_family,
    maximal_cointerval_family,
    verify_box_representation,
    verify_cointerval_cover,
)

print("=== Boxicity of small graphs ===")
for spec in ["complete:6", "path:5", "cycle:4", "multipartite:2,2,2", "cycle:6"]:
    g = gen_family(spec)
    result = exact_boxicity(g)
    print(f"box({spec}) = {result.value}   "
          f"(family {result.family_size}, nodes {result.nodes_explored})")

print()
print("=== The certificate: a cointerval edge covering of the complement ===")
c4 = cycle_graph(4)
cover = exact_boxicity(c4).certificate  # built from the result's masks
print(format_cover(cover), end="")
print("verifies:", verify_cointerval_cover(c4, cover).ok)

print()
print("=== From cover to boxes ===")
rep = cover_to_box_representation(c4, cover)
for v, box in enumerate(rep.boxes):
    print(f"vertex {v}: " + " x ".join(f"[{lo},{hi}]" for lo, hi in box))
print("boxes verify:", verify_box_representation(c4, rep).ok)

print()
print("=== Maximal cointerval subsets drive the search ===")
host = complement(complete_multipartite([2, 2, 2]))
print("host: complement of the octahedron =", len(host.edges()), "disjoint edges")
for part in maximal_cointerval_family(host):
    print("  maximal part:", part.edges())
print("minimum cover needs one part per edge, so the boxicity is 3")

print()
print("=== Complete graphs are the boxicity-0 case ===")
k5 = complete_graph(5)
result = exact_boxicity(k5)
print(f"box(K_5) = {result.value}; certificate has {len(result.certificate.parts)} parts;")
print("box representation dimension", result.box_rep.dimension, "(all-equal intervals)")
