"""The chunk pipeline: at large dimension the LAPACK half of each path chunk
runs in one worker thread, one chunk ahead of the caller."""

import threading

import numpy as np
import pytest

from holonomy_lab import evolution, state, transport
from holonomy_lab.cli import main
from holonomy_lab.errors import OrthogonalStep
from holonomy_lab.evolution import StaticHamiltonian, TimeGrid, density_path
from holonomy_lab.scenarios import BellScenario, bell_mixture, evolution_spec
from holonomy_lab.state import PATH_CHUNK, PIPELINE_MIN_DIM, DensityOperator, DensityPath, chunk_pipeline
from holonomy_lab.transport import discrete_holonomy

from conftest import random_density_matrix, random_hermitian


def _off_main_calls(monkeypatch, module, name):
    """Wrap module.name; the returned list records each call made off the main thread."""
    real = getattr(module, name)
    off_main = []

    def recorded(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            off_main.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return off_main


def test_pipelined_and_serial_paths_agree_bitwise(monkeypatch):
    rng = np.random.default_rng(5)
    dim = PIPELINE_MIN_DIM
    rho = DensityOperator(random_density_matrix(rng, dim, rank=dim // 2))
    spec = StaticHamiltonian(random_hermitian(rng, dim), tau=1.0)
    grid = TimeGrid.uniform(1.0, 3 * PATH_CHUNK + 7)
    threads = threading.enumerate()
    eigh_off_main = _off_main_calls(monkeypatch, np.linalg, "eigh")
    svd_off_main = _off_main_calls(monkeypatch, np.linalg, "svd")
    path = density_path(rho, spec, grid)
    pipelined = discrete_holonomy(path)
    assert eigh_off_main and svd_off_main  # validation and step SVDs ran in the worker
    assert threading.enumerate() == threads
    monkeypatch.setattr(state, "PIPELINE_MIN_DIM", dim + 1)
    eigh_off_main.clear()
    svd_off_main.clear()
    serial_path = density_path(rho, spec, grid)
    serial = discrete_holonomy(serial_path)
    assert not eigh_off_main and not svd_off_main
    assert np.array_equal(path.w, serial_path.w) and np.array_equal(path.V, serial_path.V)
    for field in ("relative_phase_factor", "invariant"):
        assert np.array_equal(getattr(pipelined, field), getattr(serial, field))
    assert pipelined.max_step_parallelity_residual == serial.max_step_parallelity_residual


def test_worker_calls_neither_unitary_at_nor_the_residual(monkeypatch):
    # Those two are timed per call by the benchmark's tracer, which is not thread-safe.
    monkeypatch.setattr(state, "PIPELINE_MIN_DIM", 2)
    svd_off_main = _off_main_calls(monkeypatch, np.linalg, "svd")
    unitary_off_main = _off_main_calls(monkeypatch, evolution, "unitary_at")
    residual_off_main = _off_main_calls(monkeypatch, transport, "parallelity_residual")
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    discrete_holonomy(density_path(bell_mixture(0.5), evolution_spec(s), TimeGrid.uniform(s.tau, 2 * PATH_CHUNK + 1)))
    assert svd_off_main
    assert unitary_off_main == [] and residual_off_main == []


def test_pipelined_orthogonal_step_in_a_later_chunk_is_named(monkeypatch):
    monkeypatch.setattr(state, "PIPELINE_MIN_DIM", 2)
    svd_off_main = _off_main_calls(monkeypatch, np.linalg, "svd")
    k = 2 * PATH_CHUNK + 5
    a = DensityOperator.pure(np.array([1.0, 0.0]))
    b = DensityOperator.pure(np.array([0.0, 1.0]))
    threads = threading.enumerate()
    # A second orthogonal step two chunks later; the first one is named.
    matrices = np.stack([a.matrix] * (k + 1) + [b.matrix] * (2 * PATH_CHUNK) + [a.matrix] * 3)
    path = DensityPath.from_matrices([matrices], 2)
    with pytest.raises(OrthogonalStep, match=f"between steps {k} and {k + 1}$"):
        discrete_holonomy(path)
    assert svd_off_main
    assert threading.enumerate() == threads


def test_linalg_error_in_the_worker_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(state, "PIPELINE_MIN_DIM", 2)
    real_svd = np.linalg.svd
    raised = []

    def svd_failing_in_worker(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raised.append(True)
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_failing_in_worker)
    threads = threading.enumerate()
    code = main(["run", "--scenario", "bell-static", "--steps", str(2 * PATH_CHUNK), "--format", "json"])
    captured = capsys.readouterr()
    assert raised
    assert code == 2
    assert captured.out == ""
    assert "numerical failure: SVD did not converge" in captured.err
    assert threading.enumerate() == threads


def _consume(dim, work_fails_at=None, items_fail_at=None, consumer_fails_at=None, n=6):
    """Drive chunk_pipeline over range(n); return what the consumer saw and the error."""
    seen = []

    def work(k):
        if k == work_fails_at:
            raise ValueError(f"work {k}")
        return 10 * k

    def items():
        for k in range(n):
            if k == items_fail_at:
                raise KeyError(f"item {k}")
            yield k

    try:
        with chunk_pipeline(work, items(), dim) as results:
            for r in results:
                if consumer_fails_at is not None and r == 10 * consumer_fails_at:
                    raise IndexError(f"consumer {r}")
                seen.append(r)
    except (ValueError, KeyError, IndexError) as exc:
        return seen, repr(exc)
    return seen, None


@pytest.mark.parametrize(
    "failures",
    [
        {},
        {"work_fails_at": 0},
        {"work_fails_at": 2, "items_fail_at": 3},
        {"work_fails_at": 3, "items_fail_at": 2},
        {"items_fail_at": 0},
        {"work_fails_at": 2, "consumer_fails_at": 1},
        {"work_fails_at": 1, "consumer_fails_at": 1},
        {"consumer_fails_at": 5},
    ],
    ids=repr,
)
def test_pipeline_errors_come_in_serial_order(failures):
    threads = threading.enumerate()
    serial = _consume(1, **failures)
    assert serial == _consume(PIPELINE_MIN_DIM, **failures)
    assert threading.enumerate() == threads


def test_serial_order_reference():
    assert _consume(1) == ([0, 10, 20, 30, 40, 50], None)
    assert _consume(1, work_fails_at=2, items_fail_at=3) == ([0, 10], repr(ValueError("work 2")))
    assert _consume(1, work_fails_at=3, items_fail_at=2) == ([0, 10], repr(KeyError("item 2")))
    assert _consume(1, work_fails_at=2, consumer_fails_at=1) == ([0], repr(IndexError("consumer 10")))


def test_pipeline_runs_work_in_one_worker_thread():
    names = []

    def work(k):
        names.append(threading.current_thread().name)
        return k

    threads = threading.enumerate()
    with chunk_pipeline(work, range(5), PIPELINE_MIN_DIM) as results:
        assert list(results) == list(range(5))
    assert len(set(names)) == 1 and threading.main_thread().name not in names
    assert threading.enumerate() == threads
    names.clear()
    with chunk_pipeline(work, range(5), PIPELINE_MIN_DIM - 1) as results:
        assert list(results) == list(range(5))
    assert set(names) == {threading.main_thread().name}
