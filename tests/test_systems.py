import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetgp import systems
from budgetgp.systems import (
    BENCHMARK_BOUNDS,
    LAG_PRESETS,
    SYSTEM_DEFAULTS,
    LagSpec,
    SimConfig,
    SimulationError,
    ambient_temperature,
    building_dataset,
    bouc_wen_dataset,
    comfort_setpoint,
    default_input,
    eval_benchmark_function,
    lag_embed,
    sample_uniform,
    simulate,
    tanks_dataset,
    van_der_pol_dataset,
)

FUNCTIONS = sorted(BENCHMARK_BOUNDS)


class TestBenchmarkFunctions:
    def test_known_roots(self):
        assert eval_benchmark_function("himmelblau", 3.0, 2.0) == 0.0
        assert eval_benchmark_function("rastrigin", 0.0, 0.0) == 0.0
        assert eval_benchmark_function("rosenbrock", 1.0, 1.0) == 0.0
        assert eval_benchmark_function("six-hump-camel", 0.0, 0.0) == 0.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            eval_benchmark_function("ackley", 0.0, 0.0)
        with pytest.raises(ValueError):
            sample_uniform("ackley", 5, 0)

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_samples_within_bounds(self, name):
        d = sample_uniform(name, 200, seed=3)
        bound = BENCHMARK_BOUNDS[name]
        assert np.all(np.abs(d.inputs) <= bound)
        npt.assert_allclose(
            d.targets, eval_benchmark_function(name, d.inputs[:, 0], d.inputs[:, 1])
        )

    def test_fixed_seed_reproducible(self):
        a = sample_uniform("rastrigin", 50, seed=11)
        b = sample_uniform("rastrigin", 50, seed=11)
        npt.assert_array_equal(a.inputs, b.inputs)
        npt.assert_array_equal(a.targets, b.targets)

    def test_sampled_variance_close_to_grid(self):
        d = sample_uniform("rastrigin", 500, seed=1)
        g = np.linspace(-1, 1, 120)
        xx, yy = np.meshgrid(g, g)
        grid_var = np.var(eval_benchmark_function("rastrigin", xx.ravel(), yy.ravel()))
        assert abs(np.var(d.targets) - grid_var) / grid_var < 0.2


def noise_free(**params):
    return {
        "noise_scales": {"w": 0.0, "w1": 0.0, "w2": 0.0, "w3": 0.0,
                         "w_y": 0.0, "w_v": 0.0, "w_z": 0.0, "e": 0.0},
        "params": params,
    }


class TestSimulate:
    def test_van_der_pol_equilibrium(self):
        config = SimConfig(dt=0.1, horizon=10.0, seed=0, **noise_free())
        _, _, y = simulate("van-der-pol", config)
        assert np.max(np.abs(y)) < 1e-9

    def test_tanks_equilibrium(self):
        config = SimConfig(dt=1.0, horizon=100.0, seed=0, **noise_free())
        _, _, y = simulate("tanks", config, input_signal=lambda t: 0.0)
        assert np.max(np.abs(y)) < 1e-9

    def test_building_equilibrium(self):
        config = SimConfig(
            dt=900.0, horizon=90000.0, seed=0,
            **noise_free(T_a_mean=20.0, T_a_seasonal=0.0, T_a_daily=0.0, T_a_noise=0.0),
        )
        config.initial_state = np.full(3, 20.0)
        _, _, y = simulate("building", config, input_signal=lambda t: 0.0)
        assert np.max(np.abs(y - 20.0)) < 1e-9

    def test_bouc_wen_equilibrium(self):
        config = SimConfig(dt=1e-3, horizon=0.1, seed=0, **noise_free())
        _, _, y = simulate("bouc-wen", config, input_signal=lambda t: 0.0)
        assert np.max(np.abs(y)) < 1e-9

    def test_van_der_pol_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x0 = rng.uniform(-2, 2, size=2)
            config = SimConfig(dt=0.05, horizon=30.0, seed=0, **noise_free())
            config.initial_state = x0
            _, _, y = simulate("van-der-pol", config)
            assert np.max(np.abs(y)) <= 10.0

    def test_determinism(self):
        config = SimConfig(dt=0.1, horizon=5.0, seed=123)
        config.initial_state = np.array([1.0, 0.0])
        _, _, y1 = simulate("van-der-pol", config)
        _, _, y2 = simulate("van-der-pol", config)
        npt.assert_array_equal(y1, y2)

    def test_non_finite_state_reported(self):
        config = SimConfig(dt=0.5, horizon=50.0, seed=0, **noise_free(mu=1e8))
        config.initial_state = np.array([2.0, 2.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError) as err:
                simulate("van-der-pol", config)
        assert err.value.step_index >= 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=1.0, horizon=0.5)
        with pytest.raises(ValueError):
            SimConfig(dt=1.0, horizon=2.0, noise_scales={"w": -1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tanks_non_finite_input_reported(self, bad):
        config = SimConfig(dt=1.0, horizon=10.0, seed=0)
        with pytest.raises(SimulationError) as err:
            simulate("tanks", config, input_signal=lambda t: bad if t >= 3.0 else 1.0)
        assert err.value.step_index == 3

    def test_overflowing_power_reported(self):
        config = SimConfig(dt=1e-3, horizon=0.01, seed=0, params={"nu": 3.0},
                           initial_state=np.array([0.0, 0.0, 1e200]))
        with pytest.raises(SimulationError) as err:
            simulate("bouc-wen", config, input_signal=lambda t: 0.0)
        assert err.value.step_index == 0

    @pytest.mark.parametrize("nu", [0.5, 0.8])
    def test_bouc_wen_starts_from_rest_with_nu_below_one(self, nu):
        config = SimConfig(dt=1e-3, horizon=0.1, seed=0, params={"nu": nu})
        _, _, y = simulate("bouc-wen", config,
                           input_signal=lambda t: 40.0 * math.sin(60.0 * t))
        assert np.all(np.isfinite(y)) and np.any(y != 0.0)

    def test_van_der_pol_rejects_input_signal(self):
        with pytest.raises(ValueError, match="van-der-pol"):
            simulate("van-der-pol", SimConfig(dt=0.1, horizon=1.0),
                     input_signal=lambda t: 1.0)

    @pytest.mark.parametrize("system, x0", [
        ("van-der-pol", [1.0]),
        ("tanks", [1.0, 2.0, 3.0]),
        ("bouc-wen", [0.0, 0.0]),
        ("building", [[20.0, 20.0, 20.0]]),
    ])
    def test_initial_state_of_wrong_length_rejected(self, system, x0):
        config = SimConfig(dt=1.0, horizon=5.0, seed=0, initial_state=np.array(x0))
        signal = None if system == "van-der-pol" else (lambda t: 0.0)
        with pytest.raises(ValueError, match=f"{system}: initial_state"):
            simulate(system, config, input_signal=signal)

    def test_short_input_array_rejected(self):
        with pytest.raises(ValueError, match="input_signal"):
            simulate("tanks", SimConfig(dt=1.0, horizon=10.0), input_signal=np.ones(5))


def reference_simulate(system, config, input_signal=None):
    """The array-form loop the simulators ran before the float loop: a NumPy
    state, one RNG call per draw and the input looked up at every step."""
    p = {**SYSTEM_DEFAULTS[system], **config.params}
    noise = {**systems._NOISE_DEFAULTS[system], **config.noise_scales}
    rng = np.random.default_rng(config.seed)
    dt, n = config.dt, config.n_steps
    t = np.arange(n + 1) * dt
    sqdt = math.sqrt(dt)
    if input_signal is None:
        input_signal = default_input(system, config)

    def u_at(k):
        return input_signal(t[k]) if callable(input_signal) else input_signal[k]

    def rk4(rhs, s, u):
        k1 = rhs(s, u)
        k2 = rhs(s + 0.5 * dt * k1, u)
        k3 = rhs(s + 0.5 * dt * k2, u)
        k4 = rhs(s + dt * k3, u)
        return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def start(default):
        x0 = default if config.initial_state is None else config.initial_state
        return np.array(x0, dtype=float)

    y = np.empty(n + 1)
    if system == "van-der-pol":
        def rhs(s, u):
            return np.array([s[1], p["mu"] * (1.0 - s[0] * s[0]) * s[1] - s[0] + u])

        state = start([0.0, 0.0])
        y[0] = state[0]
        for k in range(n):
            wk = noise["w"] * rng.standard_normal() if noise["w"] > 0.0 else 0.0
            state = rk4(rhs, state, wk)
            y[k + 1] = state[0]
        return t, np.empty((n + 1, 0)), y

    if system == "bouc-wen":
        def rhs(s, u):
            yy, v, z = s
            dz = p["alpha"] * v - p["beta"] * (
                p["gamma"] * abs(v) * abs(z) ** (p["nu"] - 1.0) * z
                + p["delta"] * v * abs(z) ** p["nu"]
            )
            return np.array([v, (u - p["k_L"] * yy - p["c_L"] * v - z) / p["m_L"], dz])

        stds = np.array([noise["w_y"], noise["w_v"], noise["w_z"]])
        state = start([0.0, 0.0, 0.0])
        y[0] = state[0]
        for k in range(n):
            state = rk4(rhs, state, u_at(k)) + stds * sqdt * rng.standard_normal(3)
            y[k + 1] = state[0]
        return t, np.array([u_at(k) for k in range(n + 1)], float)[:, None], y

    if system == "tanks":
        def rhs(s, u):
            x1 = min(max(s[0], 0.0), p["level_max"])
            x2 = min(max(s[1], 0.0), p["level_max"])
            return np.array([
                -p["k1"] * math.sqrt(x1) + p["k4"] * u,
                p["k2"] * math.sqrt(x1) - p["k3"] * math.sqrt(x2),
            ])

        def measured(s):
            return s[1] + (noise["e"] * rng.standard_normal() if noise["e"] > 0 else 0.0)

        stds = np.array([noise["w1"], noise["w2"]])
        state = start([0.0, 0.0])
        y[0] = measured(state)
        for k in range(n):
            state = rk4(rhs, state, u_at(k)) + stds * sqdt * rng.standard_normal(2)
            state = np.clip(state, 0.0, p["level_max"])
            y[k + 1] = measured(state)
        return t, np.array([u_at(k) for k in range(n + 1)], float)[:, None], y

    def rhs(s, u):
        T_z, T_w, T_r = s
        T_a, mdot = u
        return np.array([
            ((T_w - T_z) / p["R_z"] + (T_r - T_z) / p["R_r"]) / p["C_z"],
            ((T_z - T_w) / p["R_z"] + (T_a - T_w) / p["R_w"]) / p["C_w"],
            ((T_z - T_r) / p["R_r"] + p["c_w"] * mdot * (p["T_s"] - T_r)) / p["C_r"],
        ])

    def ambient(k):
        value = ambient_temperature(k, dt, p)
        if p["T_a_noise"] > 0.0:
            value += p["T_a_noise"] * rng.standard_normal()
        return value

    integral = 0.0

    def flow(T_z, k):
        nonlocal integral
        if input_signal is not None:
            return u_at(k)
        error = comfort_setpoint(k, dt, p) - T_z
        integral += error * dt
        mdot = p["kp"] * error + p["ki"] * integral
        if mdot <= 0.0 or mdot >= p["mdot_max"]:
            integral -= error * dt
            mdot = min(max(mdot, 0.0), p["mdot_max"])
        return mdot

    stds = np.array([noise["w1"], noise["w2"], noise["w3"]])
    state = start([20.0, 20.0, 20.0])
    u_log = np.empty((n + 1, 2))
    u_log[0] = (ambient(0), flow(state[0], 0))
    y[0] = state[0]
    for k in range(n):
        state = rk4(rhs, state, u_log[k]) + stds * sqdt * rng.standard_normal(3)
        y[k + 1] = state[0]
        u_log[k + 1] = (ambient(k + 1), flow(state[0], k + 1))
    return t, u_log, y


REFERENCE_CASES = [
    pytest.param("van-der-pol", dict(dt=0.1, horizon=30.0, seed=3, initial_state=[1.5, -0.5]),
                 None, id="van-der-pol"),
    pytest.param("bouc-wen", dict(dt=1 / 750, horizon=0.4, seed=4,
                                  noise_scales={"w_y": 1e-5, "w_z": 1e-3}),
                 None, id="bouc-wen-default-input"),
    pytest.param("bouc-wen", dict(dt=1 / 750, horizon=0.4, seed=5),
                 lambda t: 40.0 * math.sin(60.0 * t), id="bouc-wen-callable"),
    pytest.param("tanks", dict(dt=4.0, horizon=1200.0, seed=6), None, id="tanks-default-input"),
    pytest.param("tanks", dict(dt=4.0, horizon=1200.0, seed=7, noise_scales={"e": 0.0}),
                 np.repeat(np.linspace(0.2, 1.8, 13), 25), id="tanks-array-no-measurement-noise"),
    pytest.param("building", dict(dt=900.0, horizon=900.0 * 700, seed=8),
                 None, id="building-closed-loop"),
    pytest.param("building", dict(dt=900.0, horizon=900.0 * 300, seed=9,
                                  params={"T_a_noise": 0.0}),
                 None, id="building-closed-loop-quiet-ambient"),
    pytest.param("building", dict(dt=900.0, horizon=900.0 * 300, seed=10,
                                  initial_state=[15.0, 10.0, 30.0]),
                 lambda t: 0.02 + 0.01 * math.sin(t / 3600.0), id="building-callable-flow"),
    pytest.param("building", dict(dt=900.0, horizon=900.0 * 300, seed=11),
                 np.linspace(0.0, 0.05, 301), id="building-array-flow"),
]


@pytest.mark.parametrize("system, kwargs, signal", REFERENCE_CASES)
def test_matches_array_form_reference(system, kwargs, signal):
    got = simulate(system, SimConfig(**kwargs), input_signal=signal)
    want = reference_simulate(system, SimConfig(**kwargs), input_signal=signal)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def final_state_error(system, dt, horizon, x0, input_signal=None, **params):
    def run(step):
        config = SimConfig(dt=step, horizon=horizon, seed=0, **noise_free(**params))
        config.initial_state = np.asarray(x0, dtype=float)
        _, _, y = simulate(system, config, input_signal=input_signal)
        return y[-1]

    coarse, mid, fine = run(dt), run(dt / 2), run(dt / 4)
    return abs(coarse - mid), abs(mid - fine)


class TestIntegrationOrder:
    def test_van_der_pol_fourth_order(self):
        e1, e2 = final_state_error("van-der-pol", 0.1, 2.0, [1.0, 0.5])
        assert e1 / e2 >= 8.0

    def test_building_fourth_order(self):
        e1, e2 = final_state_error(
            "building", 900.0, 36000.0, [15.0, 10.0, 30.0],
            input_signal=lambda t: 0.02,
            T_a_mean=5.0, T_a_seasonal=0.0, T_a_daily=0.0, T_a_noise=0.0,
        )
        assert e1 / e2 >= 8.0

    def test_tanks_fourth_order_away_from_zero(self):
        e1, e2 = final_state_error("tanks", 4.0, 200.0, [10.0, 10.0],
                                   input_signal=lambda t: 1.0)
        assert e1 / e2 >= 8.0


class TestLagEmbed:
    def test_constant_series_gives_zero_targets(self):
        d = lag_embed(np.full(10, 3.3), [], LagSpec(2))
        assert np.all(d.targets == 0.0)

    def test_hand_countable(self):
        d = lag_embed([1.0, 2.0, 4.0], [], LagSpec(1))
        npt.assert_array_equal(d.inputs, [[1.0], [2.0]])
        npt.assert_array_equal(d.targets, [1.0, 2.0])

    def test_row_count_is_length_minus_max_lag(self):
        y = np.arange(20.0)
        u = np.arange(20.0) * 2
        d = lag_embed(y, [u], LagSpec(2, (3,)))
        assert d.n == 17
        assert d.dim == 5

    def test_feature_layout(self):
        y = np.arange(10.0)
        u = 100.0 + np.arange(10.0)
        d = lag_embed(y, [u], LagSpec(2, (2,)))
        # row for k=2: [y1, y0, u1, u0], target y2 - y1
        npt.assert_array_equal(d.inputs[0], [1.0, 0.0, 101.0, 100.0])
        assert d.targets[0] == 1.0

    def test_building_preset_has_nine_features(self):
        assert LAG_PRESETS["building"].n_features == 9

    def test_too_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            lag_embed([1.0, 2.0], [], LagSpec(2))

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            lag_embed([1.0, 2.0, 3.0], [[1.0, 2.0]], LagSpec(1, (1,)))

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4),
           st.integers(min_value=5, max_value=30))
    def test_row_count_property(self, n_y, n_u, length):
        lags = LagSpec(n_y, (n_u,) if n_u else ())
        if length <= lags.max_lag:
            return
        y = np.linspace(0, 1, length)
        u_list = [np.linspace(1, 2, length)] if n_u else []
        d = lag_embed(y, u_list, lags)
        assert d.n == length - lags.max_lag


class TestProtocols:
    def test_van_der_pol_protocol_size(self):
        d = van_der_pol_dataset(seed=7)
        assert d.n == 1000
        assert d.dim == 2

    def test_tanks_protocol_size(self):
        d = tanks_dataset(seed=7)
        assert d.n == 1022
        assert d.dim == 4

    def test_bouc_wen_protocol_size(self):
        d = bouc_wen_dataset(seed=7)
        assert d.n == 997
        assert d.dim == 6

    @pytest.mark.slow
    def test_building_protocol_split(self):
        train, val = building_dataset(seed=7)
        assert train.n == 17518
        assert val.n == 17519
        assert train.dim == 9
