import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nillab.fixedpoint import FixedPointInexact, FixedReal
from nillab.heisenberg import (
    HEISENBERG,
    GroupElement,
    GroupLaw,
    LatticeElement,
    LawMismatch,
    canonical_rep,
    identity,
    inv,
    lattice_floor,
    mul,
    nil_point,
    project_pi,
)

STAR5 = GroupLaw.star(3, 2)

fixed_vals = st.integers(min_value=-(4 << 64), max_value=4 << 64).map(FixedReal.from_q64)
laws = st.sampled_from([HEISENBERG, STAR5, GroupLaw.star(7, 5)])


@st.composite
def elements(draw, law=None):
    lw = law if law is not None else draw(laws)
    return GroupElement(draw(fixed_vals), draw(fixed_vals), draw(fixed_vals), lw)


# -- law construction ---------------------------------------------------------


def test_star_law_twist():
    assert STAR5.twist == 5
    assert GroupLaw.star(7, 5).twist == 24
    with pytest.raises(ValueError):
        GroupLaw.star(4, 2)
    with pytest.raises(ValueError):
        GroupLaw.star(2, 3)
    with pytest.raises(ValueError):
        GroupLaw("heisenberg", 2)
    with pytest.raises(ValueError):
        GroupLaw("star", 0)


# -- multiplication examples --------------------------------------------------


def test_mul_heisenberg_unit_example():
    out = mul(GroupElement.fixed(1, 0, 0), GroupElement.fixed(0, 1, 0))
    assert out.coords() == (FixedReal(1), FixedReal(1), FixedReal(1))


def test_mul_star_unit_example():
    out = mul(GroupElement.fixed(1, 0, 0, STAR5), GroupElement.fixed(0, 1, 0, STAR5))
    assert out.coords() == (FixedReal(1), FixedReal(1), FixedReal(5))


def test_mul_half_example():
    out = mul(GroupElement.fixed(0.5, 0, 0), GroupElement.fixed(0, 0.5, 0))
    assert out.coords() == (FixedReal(0.5), FixedReal(0.5), FixedReal(0.25))


def test_mul_law_mismatch():
    with pytest.raises(LawMismatch):
        mul(GroupElement.fixed(0, 0, 0), GroupElement.fixed(0, 0, 0, STAR5))
    # equal laws built separately are the same law
    out = mul(GroupElement.fixed(1, 0, 0, GroupLaw.star(3, 2)),
              GroupElement.fixed(0, 1, 0, GroupLaw.star(3, 2)))
    assert out.coords() == (FixedReal(1), FixedReal(1), FixedReal(5))


def test_mul_off_grid_commutator_raises():
    fine = FixedReal.from_scaled(1)  # 2**-128, below the 2**-64 input grid
    with pytest.raises(FixedPointInexact):
        mul(GroupElement(fine, FixedReal(0), FixedReal(0), HEISENBERG),
            GroupElement(FixedReal(0), fine, FixedReal(0), HEISENBERG))


def test_elements_immutable_with_value_semantics():
    g = GroupElement.fixed(0.25, 0.5, 0.75)
    pt = canonical_rep(g)
    for obj, attr in ((g, "x"), (g, "law"), (pt, "rep"), (LatticeElement(1, 2, 3), "a")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)
    twin = canonical_rep(GroupElement.fixed(0.25, 0.5, 0.75))
    assert g == GroupElement.fixed(0.25, 0.5, 0.75) and hash(g) == hash(twin.rep)
    assert pt == twin and hash(pt) == hash(twin)
    assert pt != canonical_rep(GroupElement.fixed(0.25, 0.5, 0.5))


def test_inv_examples():
    g = GroupElement.fixed(1, 2, 3)
    assert inv(g).coords() == (FixedReal(-1), FixedReal(-2), FixedReal(-3))
    assert mul(g, inv(g)).coords() == identity().coords()
    assert inv(identity()).coords() == identity().coords()
    s = GroupElement.fixed(0.5, 0.5, 0.75, STAR5)
    assert inv(s).coords() == (FixedReal(-0.5), FixedReal(-0.5), FixedReal(-0.75))
    assert mul(s, inv(s)).coords() == identity(STAR5).coords()


# -- algebraic properties (exact) ---------------------------------------------


@given(st.data(), laws)
def test_associativity(data, law):
    a = data.draw(elements(law))
    b = data.draw(elements(law))
    c = data.draw(elements(law))
    assert mul(mul(a, b), c).coords() == mul(a, mul(b, c)).coords()


@given(st.data(), laws)
def test_inverse_property(data, law):
    g = data.draw(elements(law))
    assert mul(g, inv(g)).coords() == identity(law).coords()
    assert mul(inv(g), g).coords() == identity(law).coords()


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), laws)
def test_lattice_closure(a1, b1, m1, a2, b2, m2, law):
    g = mul(LatticeElement(a1, b1, m1).to_group(law), LatticeElement(a2, b2, m2).to_group(law))
    assert all(v.frac().scaled == 0 for v in g.coords())


@given(st.data(), laws, st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_reduction_coset_invariance(data, law, a, b, m):
    g = data.draw(elements(law))
    gamma = LatticeElement(a, b, m).to_group(law)
    assert canonical_rep(mul(g, gamma)).coords() == canonical_rep(g).coords()


@given(st.data(), laws)
def test_canonical_fast_path_equals_composition(data, law):
    g = data.draw(elements(law))
    fast = canonical_rep(g)
    gamma = lattice_floor(g).to_group(law)
    assert fast.coords() == mul(g, inv(gamma)).coords()


@given(st.data(), laws)
def test_reduction_idempotent_and_in_box(data, law):
    g = data.draw(elements(law))
    pt = canonical_rep(g)
    for v in pt.coords():
        assert 0 <= v < 1
    assert canonical_rep(pt.rep).coords() == pt.coords()


@given(st.data(), laws, st.integers(-7, 7))
def test_centrality(data, law, m):
    g = data.draw(elements(law))
    z = GroupElement.fixed(0, 0, m, law)
    assert mul(g, z).coords() == mul(z, g).coords()


# -- reduction examples -------------------------------------------------------


def test_lattice_floor_examples():
    assert lattice_floor(GroupElement.fixed(1.5, 0.5, 0.25, STAR5)) == LatticeElement(1, 0, 2)
    assert lattice_floor(GroupElement.fixed(0.3, 0.7, 0.9)) == LatticeElement(0, 0, 0)
    assert lattice_floor(GroupElement.fixed(0.3, 0.7, 0.9, STAR5)) == LatticeElement(0, 0, 0)
    assert lattice_floor(GroupElement.fixed(1.5, 0.5, 0.25)) == LatticeElement(1, 0, 0)


def test_lattice_floor_reduces_into_box():
    g = GroupElement.fixed(1.5, 0.5, 0.25, STAR5)
    gamma = lattice_floor(g).to_group(STAR5)
    red = mul(g, inv(gamma))
    assert all(0 <= v < 1 for v in red.coords())


def test_canonical_rep_examples():
    pt = canonical_rep(GroupElement.fixed(1.5, 0.5, 0.25, STAR5))
    assert pt.coords() == (FixedReal(0.5), FixedReal(0.5), FixedReal(0.75))
    assert canonical_rep(identity()).coords() == identity().coords()
    pt2 = canonical_rep(GroupElement.fixed(1.5, 0.5, 0.25))
    assert pt2.coords() == (FixedReal(0.5), FixedReal(0.5), FixedReal(0.75))


# -- projection and the joining constraint ------------------------------------


def test_project_pi_example():
    # x = 1/4, y = 1/8: (3x, 3y) = (0.75, 0.375) and (2x, 2y) = (0.5, 0.25)
    g6 = tuple(FixedReal(v) for v in (0.75, 0.375, 0.7, 0.5, 0.25, 0.3))
    out = project_pi(g6, 3, 2)
    assert out.law == STAR5
    assert (out.x, out.y) == (FixedReal(0.25), FixedReal(0.125))
    assert out.z == FixedReal(0.7) - FixedReal(0.3)
    assert math.isclose(float(out.z), 0.4)


def test_project_pi_identity():
    out = project_pi(tuple(FixedReal(0) for _ in range(6)), 3, 2)
    assert out.coords() == identity(STAR5).coords()


def test_project_pi_exact_constraint_violation():
    bad = (FixedReal(0.5), FixedReal(0), FixedReal(0),
           FixedReal(0.2), FixedReal(0), FixedReal(0))
    with pytest.raises(ValueError):
        project_pi(bad, 3, 2)


@given(fixed_vals, fixed_vals, fixed_vals, fixed_vals, fixed_vals, fixed_vals)
def test_project_pi_morphism(x, y, z1, x2, y2, z2):
    """pi(g g') = pi(g) * pi(g') on exactly-constrained G_1 elements."""
    p, q = 3, 2
    g = (x * p, y * p, z1, x * q, y * q, z2)
    g2 = (x2 * p, y2 * p, z2, x2 * q, y2 * q, z1)

    def g1_mul(a, b):
        ax1, ay1, az1, ax2, ay2, az2 = a
        bx1, by1, bz1, bx2, by2, bz2 = b
        return (
            ax1 + bx1, ay1 + by1, az1 + bz1 + (ax1 * by1 - bx1 * ay1),
            ax2 + bx2, ay2 + by2, az2 + bz2 + (ax2 * by2 - bx2 * ay2),
        )

    lhs = project_pi(g1_mul(g, g2), p, q)
    rhs = mul(project_pi(g, p, q), project_pi(g2, p, q))
    assert lhs.coords() == rhs.coords()


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_project_pi_maps_lattice_onto_integers(a, b, m1, c, d, m2):
    """Gamma_star = pi(Gamma_1): integer pair points project to integer points."""
    p, q = 3, 2
    g = (FixedReal(p * a), FixedReal(p * b), FixedReal(m1),
         FixedReal(q * a), FixedReal(q * b), FixedReal(m2))
    out = project_pi(g, p, q)
    assert all(v.frac().scaled == 0 for v in out.coords())


def test_nil_point_validation():
    with pytest.raises(ValueError):
        from nillab.heisenberg import NilPoint

        NilPoint(GroupElement.fixed(1.5, 0, 0))
    assert nil_point(1.5, 0.5, 0.25, STAR5).coords() == (
        FixedReal(0.5), FixedReal(0.5), FixedReal(0.75),
    )


# -- storage semantics of the scaled-integer element ---------------------------


def _samples():
    star = GroupLaw.star(3, 2)
    return [
        GroupElement.fixed(0.25, -1.5, 3, star),
        GroupElement.fixed(0.25, -1.5, 3),
        canonical_rep(GroupElement.fixed(1.25, 0.5, 0.75, star)),
        canonical_rep(GroupElement.fixed(1.25, 0.5, 0.75)),
    ]


def test_hash_and_pickle_round_trips():
    import copy
    import pickle

    for obj in _samples():
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert back == obj and hash(back) == hash(obj)
            assert type(back) is type(obj)
    assert len(set(_samples())) == 4


def test_assignment_raises():
    g, pt = _samples()[0], _samples()[2]
    for obj, attr in ((g, "x"), (g, "y"), (g, "z"), (g, "law"),
                      (g, "extra"), (pt, "rep"), (pt, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)


def test_coordinates_are_fixed_reals_on_the_exact_path():
    g = GroupElement.fixed(0.25, -1.5, 3)
    assert all(type(v) is FixedReal for v in (*g.coords(), g.x, g.y, g.z))
    assert g.coords() == (FixedReal(0.25), FixedReal(-1.5), FixedReal(3))
    assert canonical_rep(g).coords() == (FixedReal(0.25), FixedReal(0.5), FixedReal(0.5))
    assert LatticeElement(1, -2, 3).to_group(HEISENBERG).coords() == (
        FixedReal(1), FixedReal(-2), FixedReal(3)
    )
    g = GroupElement.from_scaled(1 << 127, 0, 3, HEISENBERG)
    assert g.x == FixedReal(0.5) and g.z.scaled == 3


def test_non_fixed_coordinates_raise_type_error():
    """No float (nor any other non-FixedReal) reaches a scaled-integer slot."""
    with pytest.raises(TypeError, match="got float"):
        GroupElement(FixedReal(0.5), 0.0, 0.0, HEISENBERG)
    with pytest.raises(TypeError, match="got float"):
        GroupElement(0.5, 0.0, FixedReal(0), HEISENBERG)
    with pytest.raises(TypeError, match="got int"):
        GroupElement(FixedReal(0), FixedReal(0), 1, HEISENBERG)
    with pytest.raises(TypeError, match="got float"):
        project_pi((0.6, 0.3, 0.7, 0.4, 0.2, 0.3), 3, 2)
