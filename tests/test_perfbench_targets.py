"""The benchmark's tracer and workloads still fit the package.

`perfbench/tracing.py` replaces each `(owner, attribute)` of its `TARGETS`
table and reads `Basis.analysis` for its byte counts, so deleting or renaming
one of these breaks every traced benchmark run.  `perfbench/workload.py`
reads a run's result (`final_state.u`, `final_state.t`,
`records[i].diagnostics.E_f`) and calls the constants table and its
cross-checks, so a change to those breaks the end-to-end runs.  These tests
fail first.  The `concentrate` workload also keeps its own copy of criterion
9's experiment (`crflow.concentration`), pinned here to the package's.
"""

from pathlib import Path

import numpy as np
import pytest

from crflow.concentration import PHASE1, PHASE2, initial_factor
from crflow.flow import FlowConfig, run
from crflow.presets import f_two_peak
from crflow.spectral import Basis, Field, build_basis

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    import tracing
    import workload
    yield tracing, workload
    mp.undo()


def test_traced_names_resolve(perfbench):
    tracing, _ = perfbench
    sites = [(name, owner, attr) for name, pairs in tracing.TARGETS
             for owner, attr in pairs]
    missing = [f"{name}: {owner.__name__}.{attr}" for name, owner, attr in sites
               if attr not in vars(owner)]
    assert sites and not missing, missing
    assert "analysis" in vars(Basis)


def test_probe_steps_traces_real_steps(perfbench):
    # the tracer's flow.step hook unpacks the real call and return signature
    _, workload = perfbench
    assert workload.probe_steps(0, 10) > 0


def test_constants_workload_checks_pass(perfbench, tmp_path):
    _, workload = perfbench
    wl = workload.Constants(tmp_path)
    inputs = wl.setup(0)
    assert wl.check(inputs, wl.op(inputs)) == []


def test_concentrate_reads_run_result(perfbench):
    _, workload = perfbench
    f, u0 = workload.Concentrate().setup(0)
    res = run(u0, f, FlowConfig(**dict(workload.PHASE1, max_steps=5)))
    assert isinstance(res.final_state.u, Field) and res.final_state.t > 0
    ef = [rec.diagnostics.E_f for rec in res.records]
    assert len(ef) == 2 and np.all(np.isfinite(ef))
    assert workload._monotone_problem(ef, "E_f") == []


def test_concentrate_runs_criterion_9(perfbench):
    # the workload's configs and its seed-rotated f and u0 are criterion 9's,
    # bit for bit, so the benchmark measures what the acceptance test verifies
    _, workload = perfbench
    assert FlowConfig(**workload.PHASE1) == PHASE1
    assert FlowConfig(**workload.PHASE2) == PHASE2
    basis = build_basis(1, 8)
    u0, f = initial_factor(basis, 0), f_two_peak(basis)
    for seed in (0, 1):
        perm = workload.phase_rotation(basis, seed)
        for got, want in zip(workload.Concentrate().setup(seed), (f, u0)):
            want = Field.from_values(basis, want.values[perm])
            assert np.array_equal(got.coeffs, want.coeffs)
            assert np.array_equal(got.values, want.values)
