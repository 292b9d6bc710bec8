"""Numerical critical-point extraction against the preset landscapes."""

import numpy as np
import pytest

import crflow
from crflow.critical_points import find_critical_points
from crflow.morse import theorem_gate
from crflow.polynomials import MonomialSpace, PolyCalculus
from crflow.presets import f_dipole, f_two_peak


@pytest.fixture(scope="module")
def basis():
    return crflow.build_basis(1, 8)


def test_dipole_structure(basis):
    data, warnings = find_critical_points(f_dipole(basis, amplitude=0.25),
                                          n_seeds=60)
    assert not warnings
    assert len(data.critical_points) == 2
    by_index = sorted(data.critical_points, key=lambda p: p.index)
    assert by_index[0].index == 0 and by_index[0].laplacian_sign == 1
    assert by_index[1].index == 3 and by_index[1].laplacian_sign == -1
    report = theorem_gate(data)
    assert report.m == (1, 0, 0, 0)
    assert report.k == (0, 0, 0, 0)       # solvable: hypotheses not satisfied
    assert report.degree_sum == -1
    assert not report.satisfied


def test_two_peak_structure(basis):
    data, warnings = find_critical_points(f_two_peak(basis))
    assert not warnings
    assert len(data.critical_points) == 8
    assert sum((-1) ** p.index for p in data.critical_points) == 0
    report = theorem_gate(data)
    assert report.m == (2, 1, 0, 0)
    assert report.k == (1, 0, 0, 0)
    assert report.degree_sum == -1
    assert not report.satisfied           # solvable direction
    # the negative-sub-Laplacian points are the two maxima and the pass
    neg = sorted((p.index for p in data.critical_points
                  if p.laplacian_sign < 0), reverse=True)
    assert neg == [3, 3, 2]


def test_finder_locates_known_maximum(basis):
    data, _ = find_critical_points(f_dipole(basis, amplitude=0.25), n_seeds=40)
    top = max(data.critical_points, key=lambda p: p.f_value)
    loc = np.asarray(top.location)
    want = np.array([1.0, 0.0], dtype=complex)   # max of Re x_1
    assert np.linalg.norm(loc - want) < 1e-6
    assert abs(top.f_value - 1.25) < 1e-10


# (index, Laplacian sign, f value, location) of every critical point of the
# two-peak f at (1,8), as the one-seed-at-a-time Newton iteration with a
# least-squares step found them
TWO_PEAK_REFERENCE = [
    (0, 1, 0.29445924471042795, (-0.41228378992800524 + 0.9041211670753247j,
                                 0.10673637882220055 + 0.03455918466741815j)),
    (2, -1, 1.2663421348950983, (0.990571395810677 + 0.08991708468622585j,
                                 -0.08266174507051438 - 0.06205049222298233j)),
    (3, -1, 1.3004081138061132, (0.6149257711837469 - 0.0913705309670185j,
                                 0.5088484984533126 + 0.5954753795302443j)),
    (3, -1, 1.273407735000493, (0.7751805222837197 + 0.12306716017132757j,
                                -0.4289061685246004 - 0.44720144293243447j)),
    (1, 1, 0.6542192166466667, (-0.3728457031503997 - 0.45612549834397453j,
                                0.5278698832183447 - 0.6117916293917367j)),
    (1, 1, 0.6950059429776321, (-0.419329096822435 - 0.386641744854404j,
                                -0.670689097131791 + 0.47418077215611115j)),
    (0, 1, 0.5965150628374201, (-0.118282766640624 - 0.9778624428983601j,
                                -0.059383815805142286 - 0.1620734164047642j)),
    (2, 1, 0.743213644764807, (-0.9095482502576433 - 0.38212458981665004j,
                               -0.16150525239014918 - 0.02487632933354039j)),
]


def test_two_peak_points_match_reference(basis):
    data, warnings = find_critical_points(f_two_peak(basis))
    assert warnings == []
    assert len(data.critical_points) == len(TWO_PEAK_REFERENCE)
    # the points come out in seed order, which follows the grid: match each
    # one to the nearest reference location, one to one
    found = np.array([p.location for p in data.critical_points])
    ref = np.array([loc for *_, loc in TWO_PEAK_REFERENCE])
    nearest = np.abs(found[:, None] - ref[None]).max(axis=2).argmin(axis=1)
    assert sorted(nearest) == list(range(len(ref)))
    for p, k in zip(data.critical_points, nearest):
        index, sign, value, loc = TWO_PEAK_REFERENCE[k]
        assert (p.index, p.laplacian_sign) == (index, sign)
        assert abs(p.f_value - value) < 1e-10
        assert np.abs(np.asarray(p.location) - np.asarray(loc)).max() < 1e-8


def test_one_monomial_table_per_newton_iteration_and_one_to_classify(basis, monkeypatch):
    # every jet evaluates one monomial table; the Newton iteration takes one
    # jet of its active seeds per step, and the classification one jet of
    # all distinct converged points
    evaluate, jet = MonomialSpace.evaluate, PolyCalculus.jet
    tables, sizes = [], []
    monkeypatch.setattr(MonomialSpace, "evaluate",
                        lambda self, *args: tables.append(1) or evaluate(self, *args))
    monkeypatch.setattr(PolyCalculus, "jet",
                        lambda self, points: sizes.append(len(points)) or jet(self, points))
    data, _ = find_critical_points(f_two_peak(basis))
    assert len(tables) == len(sizes)
    newton, classify = sizes[:-1], sizes[-1]
    assert classify == len(data.critical_points) == 8
    assert newton == sorted(newton, reverse=True)    # the active set only shrinks
    assert len(newton) <= 60                          # max_iter


def test_vectorized_dedup_keeps_the_loop_morse_data(basis, monkeypatch):
    # the one-pass-per-kept-point dedup against the old point-by-point loop
    # (first point in seed order represents its cluster, DEDUP_TOL apart)
    from crflow import critical_points
    from crflow.critical_points import DEDUP_TOL

    def loop_first_of_each(points):
        unique = []
        for x in points:
            if all(np.linalg.norm(x - y) >= DEDUP_TOL for y in unique):
                unique.append(x)
        return np.array(unique).reshape(-1, points.shape[1])

    # clusters closer than DEDUP_TOL and a chain whose middle point is dropped
    pts = np.array([[1, 0], [1 + 4e-7, 0], [0, 1], [1 + 8e-7, 0],
                    [1 + 1.2e-6, 0], [0, 1 - 3e-7]], dtype=complex)
    assert np.array_equal(critical_points._first_of_each(pts), loop_first_of_each(pts))
    assert len(critical_points._first_of_each(pts[:0])) == 0
    f = f_two_peak(basis)
    got = find_critical_points(f)
    monkeypatch.setattr(critical_points, "_first_of_each", loop_first_of_each)
    assert got == find_critical_points(f)
