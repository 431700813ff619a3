"""Benchmark data generators.

Four analytic test functions with uniform samplers, four noise-driven
dynamical systems integrated with fixed-step RK4 (process noise added per
step, scaled by sqrt(dt)), a PI-controlled thermal-zone model, and the lag
embedding that turns simulated series into one-step-increment regression
tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gp import Dataset

__all__ = [
    "LagSpec",
    "SimConfig",
    "SimulationError",
    "eval_benchmark_function",
    "sample_uniform",
    "simulate",
    "lag_embed",
    "default_input",
    "van_der_pol_dataset",
    "bouc_wen_dataset",
    "tanks_dataset",
    "building_dataset",
    "BENCHMARK_BOUNDS",
    "LAG_PRESETS",
    "SYSTEM_DEFAULTS",
    "PARAMS_VERSION",
]


class SimulationError(RuntimeError):
    """The integrated state left the finite range; carries the step index."""

    def __init__(self, step_index: int, message: str):
        self.step_index = int(step_index)
        super().__init__(message)


# --- analytic test functions ---------------------------------------------------

# Half-width of the square sampling box per function.
BENCHMARK_BOUNDS = {
    "himmelblau": 4.0,
    "rastrigin": 1.0,
    "six-hump-camel": 2.0,
    "rosenbrock": 1.0,
}


def eval_benchmark_function(name: str, x1, x2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if name == "himmelblau":
        return (x1**2 + x2 - 11.0) ** 2 + (x1 + x2**2 - 7.0) ** 2
    if name == "rastrigin":
        return (
            20.0
            + (x1**2 - 10.0 * np.cos(2.0 * np.pi * x1))
            + (x2**2 - 10.0 * np.cos(2.0 * np.pi * x2))
        )
    if name == "six-hump-camel":
        return (
            (4.0 - 2.1 * x1**2 + x1**4 / 3.0) * x1**2
            + x1 * x2
            + (-4.0 + 4.0 * x2) * x2**2
        )
    if name == "rosenbrock":
        return (1.0 - x1) ** 2 + 100.0 * (x2 - x1**2) ** 2
    raise ValueError(f"unknown benchmark function {name!r}")


def sample_uniform(name: str, n: int, seed) -> Dataset:
    """Uniform inputs over the function's box with exact function values as
    targets (the GP's noise model supplies any noise)."""
    if n < 1:
        raise ValueError("need at least one sample")
    bound = BENCHMARK_BOUNDS[name] if name in BENCHMARK_BOUNDS else None
    if bound is None:
        raise ValueError(f"unknown benchmark function {name!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    X = rng.uniform(-bound, bound, size=(n, 2))
    return Dataset(X, eval_benchmark_function(name, X[:, 0], X[:, 1]))


# --- dynamic systems -----------------------------------------------------------

PARAMS_VERSION = 1

# Bouc-Wen oscillator constants follow the published hysteretic benchmark;
# tank coefficients and thermal RC values are defaults giving sensible
# operating ranges (tanks fill to ~15 units, zone time constant ~2 h).
SYSTEM_DEFAULTS = {
    "bouc-wen": {
        "m_L": 2.0,
        "k_L": 5e4,
        "c_L": 10.0,
        "alpha": 5e4,
        "beta": 1e3,
        "gamma": 0.8,
        "delta": -1.1,
        "nu": 1.0,
        "u_amplitude": 50.0,
    },
    "tanks": {
        "k1": 0.05,
        "k2": 0.05,
        "k3": 0.05,
        "k4": 0.1,
        "level_max": 20.0,
        "u_max": 2.0,
    },
    "van-der-pol": {"mu": 1.0},
    "building": {
        "C_z": 3e6,
        "C_w": 2e7,
        "C_r": 5e5,
        "R_z": 2e-3,
        "R_r": 4e-3,
        "R_w": 8e-3,
        "c_w": 4180.0,
        "T_s": 60.0,
        "mdot_max": 0.05,
        "kp": 0.01,
        "ki": 1e-5,
        "T_a_mean": 8.0,
        "T_a_seasonal": 10.0,
        "T_a_daily": 3.0,
        "T_a_noise": 0.5,
        "comfort_day": 21.0,
        "comfort_night": 17.0,
    },
}

_NOISE_DEFAULTS = {
    "bouc-wen": {"w_y": 0.0, "w_v": 1e-3, "w_z": 0.0},
    "tanks": {"w1": 0.01, "w2": 0.01, "e": 0.01},
    "van-der-pol": {"w": math.sqrt(0.1)},
    "building": {"w1": math.sqrt(5e-5), "w2": math.sqrt(5e-5), "w3": math.sqrt(5e-5)},
}


@dataclass
class SimConfig:
    dt: float
    horizon: float
    seed: int = 0
    params: dict = field(default_factory=dict)
    noise_scales: dict = field(default_factory=dict)
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must cover at least one step")
        if any(v < 0 for v in self.noise_scales.values()):
            raise ValueError("noise scales must be >= 0")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _merged(system: str, config: SimConfig):
    params = dict(SYSTEM_DEFAULTS[system])
    params.update(config.params)
    noise = dict(_NOISE_DEFAULTS[system])
    noise.update(config.noise_scales)
    return params, noise


def _rk4(rhs, s, u, dt):
    # Entry by entry, in the order of the array form s + (0.5*dt)*k and
    # s + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4), so the same floats come out.
    h = 0.5 * dt
    k1 = rhs(s, u)
    k2 = rhs([a + h * b for a, b in zip(s, k1)], u)
    k3 = rhs([a + h * b for a, b in zip(s, k2)], u)
    k4 = rhs([a + dt * b for a, b in zip(s, k3)], u)
    c = dt / 6.0
    return [
        a + c * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
        for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)
    ]


def _bouc_wen_rhs(p):
    def rhs(s, u):
        y, v, z = s
        dz = p["alpha"] * v - p["beta"] * (
            p["gamma"] * abs(v) * math.copysign(abs(z) ** p["nu"], z)
            + p["delta"] * v * abs(z) ** p["nu"]
        )
        dv = (u[0] - p["k_L"] * y - p["c_L"] * v - z) / p["m_L"]
        return v, dv, dz

    return rhs


def _tanks_rhs(p):
    def rhs(s, u):
        x1 = min(max(s[0], 0.0), p["level_max"])
        x2 = min(max(s[1], 0.0), p["level_max"])
        return (
            -p["k1"] * math.sqrt(x1) + p["k4"] * u[0],
            p["k2"] * math.sqrt(x1) - p["k3"] * math.sqrt(x2),
        )

    return rhs


def _van_der_pol_rhs(p):
    # u[0] carries the acceleration disturbance, sampled once per step and
    # held over the integration interval.
    def rhs(s, u):
        x, v = s
        return v, p["mu"] * (1.0 - x * x) * v - x + u[0]

    return rhs


def _building_rhs(p):
    def rhs(s, u):
        T_z, T_w, T_r = s
        T_a, mdot = u
        dT_z = ((T_w - T_z) / p["R_z"] + (T_r - T_z) / p["R_r"]) / p["C_z"]
        dT_w = ((T_z - T_w) / p["R_z"] + (T_a - T_w) / p["R_w"]) / p["C_w"]
        dT_r = ((T_z - T_r) / p["R_r"] + p["c_w"] * mdot * (p["T_s"] - T_r)) / p["C_r"]
        return dT_z, dT_w, dT_r

    return rhs


# Per system: right-hand side, default initial state, the noise scales added
# to the state after every step (one per state entry) and the scale of the
# one draw made per sample: the oscillator's acceleration disturbance, the
# tanks' measurement noise, the building's ambient-temperature noise.
_SYSTEMS = {
    "bouc-wen": (_bouc_wen_rhs, (0.0, 0.0, 0.0), ("w_y", "w_v", "w_z"), None),
    "tanks": (_tanks_rhs, (0.0, 0.0), ("w1", "w2"), "e"),
    "van-der-pol": (_van_der_pol_rhs, (0.0, 0.0), (), "w"),
    "building": (_building_rhs, (20.0, 20.0, 20.0), ("w1", "w2", "w3"), "T_a_noise"),
}


def ambient_temperature(k: int, dt: float, p: dict) -> float:
    """Synthetic ambient trace before its white noise: seasonal drift plus
    daily cycle."""
    t = k * dt
    day = t / 86400.0
    hour = (day % 1.0) * 24.0
    return (
        p["T_a_mean"]
        - p["T_a_seasonal"] * math.cos(2.0 * math.pi * day / 365.0)
        + p["T_a_daily"] * math.sin(2.0 * math.pi * (hour - 9.0) / 24.0)
    )


def comfort_setpoint(k: int, dt: float, p: dict) -> float:
    """Lower edge of the comfort band; relaxed at night and on weekends."""
    t = k * dt
    day_index = int(t // 86400.0)
    hour = (t % 86400.0) / 3600.0
    weekend = day_index % 7 >= 5
    night = hour < 6.0 or hour >= 22.0
    return p["comfort_night"] if weekend or night else p["comfort_day"]


def default_input(system: str, config: SimConfig) -> np.ndarray | None:
    """Excitation used by the dataset protocols: a seeded multisine force
    for the oscillator, seeded piecewise-constant flow for the tanks."""
    rng = np.random.default_rng(config.seed + 1)
    n = config.n_steps + 1
    params, _ = _merged(system, config)
    if system == "bouc-wen":
        t = np.arange(n) * config.dt
        freqs = rng.uniform(1.0, 40.0, size=8)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=8)
        u = np.sum(
            np.sin(np.outer(t, 2.0 * np.pi * freqs) + phases), axis=1
        )
        return params["u_amplitude"] / math.sqrt(8.0) * u
    if system == "tanks":
        hold = 25
        levels = rng.uniform(0.0, params["u_max"], size=n // hold + 1)
        return np.repeat(levels, hold)[:n]
    if system == "van-der-pol":
        return None
    if system == "building":
        return None  # closed loop with the PI controller
    raise ValueError(f"unknown system {system!r}")


def _sampled_input(signal, t: np.ndarray) -> np.ndarray:
    """The input at every sample time: a callable is evaluated at each
    time, an array is used as given."""
    u = np.asarray(
        [signal(tk) for tk in t.tolist()] if callable(signal) else signal, dtype=float
    )
    if u.ndim != 1 or len(u) < len(t):
        raise ValueError(f"input_signal needs {len(t)} samples, got shape {u.shape}")
    return u[: len(t)]


def simulate(system: str, config: SimConfig, input_signal=None):
    """Integrate one benchmark system over the horizon.

    Returns ``(t, u, y)``: sample times, the applied input sequence (an
    ``n x n_inputs`` array, empty width for the autonomous oscillator) and
    the output sequence.  Process noise enters the state equations per step
    scaled by sqrt(dt), except the oscillator's acceleration disturbance
    which is sampled once per interval and held while integrating; the
    building runs closed loop with its PI controller when no explicit flow
    signal is given.  ``input_signal`` is a callable of time or an array
    with one value per sample; the oscillator takes none.

    The draws come from ``default_rng(config.seed)`` in one fixed order:
    the per-sample draw for sample 0 (disturbance, measurement or ambient
    noise; skipped for every sample when its scale is 0), then per step the
    state-noise draws and the next sample's draw.  A state that leaves the
    finite range raises :class:`SimulationError` with the step index; an
    unknown system, an ``initial_state`` of the wrong length or an input
    the system cannot take raises ``ValueError``.
    """
    if system not in _SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    make_rhs, default_state, state_noise, sample_noise = _SYSTEMS[system]
    params, noise = _merged(system, config)
    dt = config.dt
    n = config.n_steps
    t = np.arange(n + 1) * dt
    state = list(default_state)
    if config.initial_state is not None:
        x0 = np.asarray(config.initial_state, dtype=float)
        if x0.shape != (len(state),):
            raise ValueError(
                f"{system}: initial_state needs {len(state)} values, got shape {x0.shape}"
            )
        state = x0.tolist()

    m = len(state_noise)
    scale = {**params, **noise}.get(sample_noise, 0.0)
    rng = np.random.default_rng(config.seed)
    if scale > 0.0:
        block = rng.standard_normal(1 + n * (m + 1))
        per_step = block[1:].reshape(n, m + 1)
        per_sample = scale * np.concatenate((block[:1], per_step[:, m]))
    else:
        per_step = rng.standard_normal(n * m).reshape(n, m)
        per_sample = np.zeros(n + 1)
    kicks = per_step[:, :m]  # scaled in place: the block is the only noise array
    kicks *= np.array([noise[name] for name in state_noise]) * math.sqrt(dt)

    closed_loop = system == "building" and input_signal is None
    if system == "van-der-pol":
        if input_signal is not None:
            raise ValueError("van-der-pol takes no input_signal")
        drive = per_sample[:, None]
    elif system == "building":
        T_a = np.fromiter(
            (ambient_temperature(k, dt, params) for k in range(n + 1)), float, n + 1
        )
        if scale > 0.0:
            T_a += per_sample
        mdot = np.zeros(n + 1) if closed_loop else _sampled_input(input_signal, t)
        drive = np.column_stack((T_a, mdot))
    else:
        if input_signal is None:
            input_signal = default_input(system, config)
        drive = _sampled_input(input_signal, t)[:, None]

    integral = 0.0

    def controller(T_z, k):
        nonlocal integral
        error = comfort_setpoint(k, dt, params) - T_z
        integral += error * dt
        mdot = params["kp"] * error + params["ki"] * integral
        if mdot <= 0.0 or mdot >= params["mdot_max"]:
            integral -= error * dt  # anti-windup: freeze while saturated
            mdot = min(max(mdot, 0.0), params["mdot_max"])
        return mdot

    rhs = make_rhs(params)
    out = 1 if system == "tanks" else 0  # the tanks measure the lower level
    y = np.empty(n + 1)
    y[0] = state[out]
    for k in range(n):
        if closed_loop:
            drive[k, 1] = controller(state[0], k)
        try:
            state = _rk4(rhs, state, drive[k].tolist(), dt)
        except (OverflowError, ZeroDivisionError) as exc:
            # float ** and / raise where the array form gave inf or nan
            raise SimulationError(k, f"non-finite state at step {k}: {exc}") from exc
        if m:
            state = [x + w for x, w in zip(state, kicks[k].tolist())]
        if not all(map(math.isfinite, state)):
            raise SimulationError(k, f"non-finite state at step {k}")
        if system == "tanks":
            state = [min(max(x, 0.0), params["level_max"]) for x in state]
        y[k + 1] = state[out]
    if closed_loop:
        drive[n, 1] = controller(state[0], n)
    if system == "tanks":
        y += per_sample
    return t, (np.empty((n + 1, 0)) if system == "van-der-pol" else drive), y


# --- lag embedding -------------------------------------------------------------


@dataclass(frozen=True)
class LagSpec:
    """How many delayed outputs and delayed inputs become features."""

    n_y: int
    n_u: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n_u", tuple(int(v) for v in self.n_u))
        if self.n_y < 1:
            raise ValueError("need at least one output lag")
        if any(v < 0 for v in self.n_u):
            raise ValueError("input lag counts must be >= 0")

    @property
    def max_lag(self) -> int:
        return max((self.n_y, *self.n_u))

    @property
    def n_features(self) -> int:
        return self.n_y + sum(self.n_u)


LAG_PRESETS = {
    "bouc-wen": LagSpec(3, (3,)),
    "tanks": LagSpec(2, (2,)),
    "van-der-pol": LagSpec(2, ()),
    "building": LagSpec(3, (3, 3)),
}


def lag_embed(y, u_list, lags: LagSpec) -> Dataset:
    """Rows ``k``: features ``[y_{k-1}..y_{k-n_y}, u_{k-1}..u_{k-n_u}, ...]``
    with target ``y_k - y_{k-1}``; one row per step after the longest lag."""
    y = np.asarray(y, dtype=float)
    u_list = [np.asarray(u, dtype=float) for u in u_list]
    if len(u_list) != len(lags.n_u):
        raise ValueError(
            f"{len(u_list)} input sequences but {len(lags.n_u)} lag counts"
        )
    for u in u_list:
        if len(u) != len(y):
            raise ValueError("input sequences must align with the output")
    m = lags.max_lag
    if len(y) <= m:
        raise ValueError(f"sequence of length {len(y)} too short for max lag {m}")
    rows = np.empty((len(y) - m, lags.n_features))
    col = 0
    for j in range(1, lags.n_y + 1):
        rows[:, col] = y[m - j : len(y) - j]
        col += 1
    for u, n_u in zip(u_list, lags.n_u):
        for j in range(1, n_u + 1):
            rows[:, col] = u[m - j : len(y) - j]
            col += 1
    targets = y[m:] - y[m - 1 : -1]
    return Dataset(rows, targets)


# --- dataset protocols ----------------------------------------------------------


def van_der_pol_dataset(seed: int, n_trajectories: int = 20, rows_per_traj: int = 50) -> Dataset:
    """Uniform initial conditions in [-2, 2]^2, 0.1 s sampling, each
    trajectory embedded to ``rows_per_traj`` rows (two lead-in samples cover
    the output lags); 20 x 50 rows by default."""
    rng = np.random.default_rng(seed)
    lags = LAG_PRESETS["van-der-pol"]
    dt = 0.1
    parts = []
    for i in range(n_trajectories):
        x0 = rng.uniform(-2.0, 2.0, size=2)
        config = SimConfig(
            dt=dt,
            horizon=(rows_per_traj + lags.max_lag - 1) * dt,
            seed=int(rng.integers(2**31)),
            initial_state=x0,
        )
        _, _, y = simulate("van-der-pol", config)
        parts.append(lag_embed(y, [], lags))
    inputs = np.vstack([p.inputs for p in parts])
    targets = np.concatenate([p.targets for p in parts])
    return Dataset(inputs, targets)


def bouc_wen_dataset(seed: int, n_samples: int = 1000) -> Dataset:
    dt = 1.0 / 750.0
    config = SimConfig(dt=dt, horizon=(n_samples - 1) * dt, seed=seed)
    _, u, y = simulate("bouc-wen", config)
    return lag_embed(y, [u[:, 0]], LAG_PRESETS["bouc-wen"])


def tanks_dataset(seed: int, n_samples: int = 1024) -> Dataset:
    dt = 4.0
    config = SimConfig(dt=dt, horizon=(n_samples - 1) * dt, seed=seed)
    _, u, y = simulate("tanks", config)
    return lag_embed(y, [u[:, 0]], LAG_PRESETS["tanks"])


def building_dataset(seed: int, n_samples: int = 35040):
    """One year of 15-minute closed-loop operation, embedded then halved:
    first half training, second half validation."""
    dt = 900.0
    config = SimConfig(dt=dt, horizon=(n_samples - 1) * dt, seed=seed)
    _, u, y = simulate("building", config)
    embedded = lag_embed(y, [u[:, 0], u[:, 1]], LAG_PRESETS["building"])
    half = embedded.n // 2
    return embedded.subset(np.arange(half)), embedded.subset(np.arange(half, embedded.n))
