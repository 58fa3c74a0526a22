"""Class functions, inner products, lifting along norm maps, induced characters.

Class functions are stored on an explicit class partition; values live in
Q(ζ_p).  Virtual characters are ordinary ring elements here: torus-side
identities are verified entirely at the level of values, no representation
spaces are ever materialized for them.  ``induced_trace`` evaluates the
fixed-coset formula one coset at a time; it is the tests' oracle for the
library's induced characters, which never loop over cosets
(``RepContext.translation_rows``, ``schrodinger.extended_gsp_trace``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNum
from .errors import SupportMismatch
from .grouplib import GroupSpec, Partition, SympGroup, TorusSL2
from .normmap import DEFAULT_AMBIENT_CAP, NormConfig, gyoja_norms, twisted_product


@dataclass(frozen=True)
class ClassFunction:
    partition: Partition
    values: tuple

    @property
    def p(self) -> int:
        return self.values[0].p

    def at(self, g) -> CycNum:
        return self.values[self.partition.index_of(g)]

    def _match(self, other: "ClassFunction"):
        if self.partition is not other.partition:
            raise SupportMismatch("class functions live on different partitions")


def indicator_basis(partition: Partition, p: int) -> list[ClassFunction]:
    out = []
    for k in range(len(partition)):
        vals = tuple(CycNum.one(p) if j == k else CycNum.zero(p) for j in range(len(partition)))
        out.append(ClassFunction(partition, vals))
    return out


def inner_product(f1: ClassFunction, f2: ClassFunction) -> CycNum:
    """(1/|G|) Σ_g f1(g) conj(f2(g)); the same formula serves twisted cosets."""
    f1._match(f2)
    p = f1.p
    total = CycNum.zero(p)
    size_total = 0
    for size, a, b in zip(f1.partition.sizes, f1.values, f2.values):
        total = total + a * b.conj() * CycNum.rational(p, size)
        size_total += size
    return total * CycNum.rational(p, 1, size_total)


def lift_class_function(cfg: NormConfig, spec: SympGroup, chi: ClassFunction,
                        twisted: Partition, ambient_cap: int = DEFAULT_AMBIENT_CAP) -> ClassFunction:
    """Pull a class function on G(F_d) back to the coset σ^i ⋉ G(F')."""
    norms = gyoja_norms(cfg, spec, twisted.reps, ambient_cap)
    return ClassFunction(twisted, tuple(chi.values[chi.partition.index_of(N)] for N in norms))


def coset_pairs(spec: GroupSpec, reps, j: int = 0) -> list:
    """(r⁻¹, σʲ(r)) for each coset representative r, the input of induced_trace."""
    return [(spec.inv(r), spec.frob(r, j)) for r in reps]


def induced_trace(spec: GroupSpec, pairs, y, member, chi) -> CycNum:
    """Σ over (r⁻¹, σʲ(r)) in pairs of [z ∈ H]·χ(z), where z = r⁻¹·y·σʲ(r).

    The fixed-coset form of the induced-character formula: with j = 0 it is
    Ind_H^G χ at y; with j ≠ 0 it is the character of Ind_{Γ⋉H}^{Γ⋉G} at
    (σʲ, y).  member tests z ∈ H and chi evaluates χ on H.
    """
    total = CycNum.zero(spec.tower.p)
    for r_inv, r_j in pairs:
        z = spec.mul(spec.mul(r_inv, y), r_j)
        if member(z):
            total = total + chi(z)
    return total


# -- elliptic torus characters ---------------------------------------------------


def omega(torus: TorusSL2) -> dict:
    """The unique order-2 character of the cyclic torus."""
    out = {}
    for g in torus.elements():
        out[g] = 1 if torus.log(g) % 2 == 0 else -1
    return out


def omega_prime(torus_top: TorusSL2, torus_base: TorusSL2, d: int = 1) -> dict:
    """ω ∘ (norm g·σ^d(g)··· down to the level-d torus); equals the order-2 character."""
    base_omega = omega(torus_base)
    k = torus_top.level // d
    return {g: base_omega[twisted_product(torus_top, d, g, k)] for g in torus_top.elements()}


def eta(j: int) -> int:
    """Order-2 character of the Galois group, η(σ^j) = (-1)^j."""
    return -1 if j % 2 else 1


def weil_torus_restriction(ctx, torus: TorusSL2) -> list:
    """(t, tr ρ(t), |T|·[t = 1] − ω(t)) for each t of the elliptic torus.

    The two values agree everywhere exactly when ρ restricted to the torus
    contains every torus character once except ω, which it omits.
    """
    om = omega(torus)
    order = torus.order()
    ident = torus.identity()
    elems = torus.elements()
    return [(g, tr, CycNum.rational(ctx.p, (order if g == ident else 0) - om[g]))
            for g, tr in zip(elems, ctx.extended_traces(0, elems))]
