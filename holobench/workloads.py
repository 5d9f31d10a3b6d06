"""Benchmark workloads and the seeded input generator.

A workload is a list of ``Op`` values: one ``holonomy-lab`` invocation
each, with the number of path steps it transports and the inputs its
output oracle needs. Scenario files for the generic workloads are
generated here from the seed; the same seed always writes byte-identical
files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("bell-long", "sampled-file", "wide-generic", "verify-suite")

# Index sequences assembled by the generic workloads (1-based, as in files).
GENERIC_INVARIANTS = ((1,), (2,), (3,), (1, 2), (1, 2, 3))

BELL_STEPS = 10000


@dataclass(frozen=True)
class GenericInput:
    """Everything a generated scenario file encodes, as arrays.

    ``unitaries`` holds U(t_k) = exp(-i H t_k) on every grid time. A
    sampled file carries these samples; a static one carries H and tau.
    """

    states: tuple
    hamiltonian: np.ndarray
    unitaries: np.ndarray
    sampled: bool
    tau: float
    n_steps: int
    observables: dict
    invariants: tuple = GENERIC_INVARIANTS

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]


@dataclass(frozen=True)
class Op:
    """One CLI process of a workload.

    ``kind`` selects the oracle: "preset", "generic" or "verify".
    ``steps`` is paths x n_steps, the transported path steps.
    """

    name: str
    argv: tuple
    kind: str
    steps: int = 0
    expect: dict = field(default_factory=dict)
    generic: GenericInput | None = None


# ---------------------------------------------------------------- generator

def _random_hermitian(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def _unit_spread(h: np.ndarray) -> np.ndarray:
    """Scale a Hermitian matrix so that its eigenvalues span exactly 1."""
    w = np.linalg.eigvalsh(h)
    return h / (w[-1] - w[0])


def _random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _propagators(h: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t_k) for every time, as a (len(times), d, d) stack."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * np.outer(times, w))
    return np.einsum("ij,kj,lj->kil", v, phases, v.conj())


def _states(rng, dim: int, ranks) -> tuple:
    """Random states whose supports overlap well and whose spectra are flat.

    Every state is built on a frame close to one shared random frame (a
    rotation by at most half a radian), and its nonzero eigenvalues lie
    within a factor of two of each other. Products of their invariants
    then stay far from nodal points, so every phase is well defined.
    """
    frame = _random_unitary(rng, dim)
    out = []
    for rank in ranks:
        tilt = _propagators(_unit_spread(_random_hermitian(rng, dim)), np.array([0.5]))[0]
        vecs = (tilt @ frame)[:, :rank]
        p = 1.0 + rng.random(rank)
        p /= p.sum()
        m = (vecs * p) @ vecs.conj().T
        out.append((m + m.conj().T) / 2)
    return tuple(out)


def _observable(rng, dim: int) -> np.ndarray:
    """Positive definite A = 1 + G/2 with G of unit spread."""
    a = np.eye(dim) + _unit_spread(_random_hermitian(rng, dim)) / 2
    return (a + a.conj().T) / 2


def generic_input(workload: str, seed: int) -> GenericInput:
    """The seeded inputs of ``sampled-file`` or ``wide-generic``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sampled-file":
        dim, ranks, n_steps, sampled = 4, (2, 2, 4), 2000, True
    elif workload == "wide-generic":
        dim, ranks, n_steps, sampled = 32, (16, 16, 32), 1000, False
    else:
        raise ValueError(f"{workload} has no generated scenario file")
    tau = 1.0
    h = _unit_spread(_random_hermitian(rng, dim))
    states = _states(rng, dim, ranks)
    observables = {"A": _observable(rng, dim)}
    unitaries = _propagators(h, np.linspace(0.0, tau, n_steps + 1))
    return GenericInput(
        states=states,
        hamiltonian=h,
        unitaries=unitaries,
        sampled=sampled,
        tau=tau,
        n_steps=n_steps,
        observables=observables,
    )


def _num(x: float) -> str:
    return repr(float(x))


def _matrix(m: np.ndarray) -> str:
    rows = ("[" + ", ".join(f"[{_num(z.real)}, {_num(z.imag)}]" for z in row) + "]" for row in m)
    return "[" + ", ".join(rows) + "]"


def scenario_text(inp: GenericInput) -> str:
    """Render a scenario file; floats use repr, so they read back exactly."""
    lines = ["format_version: 1", "states:"]
    lines += [f"  - matrix: {_matrix(rho)}" for rho in inp.states]
    lines.append("evolution:")
    if inp.sampled:
        lines += ["  variant: sampled", f"  tau: {_num(inp.tau)}", "  unitaries:"]
        lines += [f"    - {_matrix(u)}" for u in inp.unitaries]
    else:
        lines += [
            "  variant: static",
            f"  hamiltonian: {_matrix(inp.hamiltonian)}",
            f"  tau: {_num(inp.tau)}",
        ]
    lines += ["grid:", f"  n_steps: {inp.n_steps}", "invariants:"]
    lines += ["  - [" + ", ".join(str(j) for j in seq) + "]" for seq in inp.invariants]
    lines.append("observables:")
    lines += [f"  {name}: {_matrix(a)}" for name, a in inp.observables.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- workloads

def _bell_op(variant: str, epsilon: float) -> Op:
    preset = f"bell-{variant}"
    return Op(
        name=f"{preset}-eps{epsilon:g}",
        argv=("run", "--scenario", preset, "--epsilon", f"{epsilon:g}",
              "--steps", str(BELL_STEPS), "--format", "json"),
        kind="preset",
        steps=2 * BELL_STEPS,
        expect={"epsilon": epsilon, "steps": BELL_STEPS},
    )


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The ops of one workload; generic scenario files go into ``workdir``."""
    if workload == "bell-long":
        return [_bell_op("static", 0.5), _bell_op("rotating", 0.0)]
    if workload in ("sampled-file", "wide-generic"):
        inp = generic_input(workload, seed)
        path = workdir / f"{workload}-{seed}.yaml"
        path.write_text(scenario_text(inp), encoding="utf-8")
        paths = len({j for seq in inp.invariants for j in seq})
        return [
            Op(
                name=workload,
                argv=("run", "--scenario", str(path), "--format", "json", "--dump-isometry"),
                kind="generic",
                steps=paths * inp.n_steps,
                generic=inp,
            )
        ]
    if workload == "verify-suite":
        return [Op(name="verify", argv=("verify", "--seed", str(seed)), kind="verify",
                   expect={"seed": seed})]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _bell_mixture(epsilon: float) -> np.ndarray:
    psi_plus = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    psi_minus = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return (np.outer(psi_minus, psi_minus) + epsilon * np.outer(psi_plus, psi_plus)) / (1 + epsilon)


def linalg_inputs(workload: str, seed: int, ops: list[Op]) -> dict:
    """The workload's own matrices for the per-call linalg timings.

    ``rho`` is a path's first state, ``h`` its generator, ``t`` one grid
    step and ``m`` the first step product rho(t)^{1/2} rho(0)^{1/2}. The
    property suite draws small random matrices, so verify-suite gets a
    seeded d = 4 state and generator.
    """
    if workload == "bell-long":
        sigma_y = np.array([[0, -1j], [1j, 0]])
        rho, h, t = _bell_mixture(0.5), np.kron(sigma_y, np.eye(2)), (np.pi / 2) / BELL_STEPS
    elif ops[0].generic is not None:
        inp = ops[0].generic
        rho, h, t = inp.states[0], inp.hamiltonian, inp.tau / inp.n_steps
    else:
        rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        h = _unit_spread(_random_hermitian(rng, 4))
        rho, t = _states(rng, 4, (4,))[0], 1e-3
    u = _propagators(h, np.array([t]))[0]
    m = _sqrt_psd(u @ rho @ u.conj().T) @ _sqrt_psd(rho)
    return {"rho": rho, "h": h, "m": m, "t": np.float64(t)}
