import numpy as np
import pytest

from dendrifliess.signals import (
    SPIN_GENERATORS,
    MatrixSignal,
    SignalError,
    constant_signal,
    random_smooth_signal,
    signal_from_csv,
    signal_norm,
    signal_to_csv,
    spin_field,
    stack_norm1,
    trapezoid_prefix,
    ubar,
)


def test_trapezoid_exact_on_linear():
    t = np.linspace(0.0, 2.0, 101)
    h = t[1] - t[0]
    out = trapezoid_prefix(3.0 * t + 1.0, h)
    assert np.allclose(out, 1.5 * t ** 2 + t, atol=1e-12)


def test_trapezoid_second_order_on_quadratic():
    errs = []
    for n in (100, 200):
        t = np.linspace(0.0, 1.0, n + 1)
        out = trapezoid_prefix(t ** 2, t[1])
        errs.append(abs(out[-1] - 1.0 / 3.0))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_signal_shape_validation():
    with pytest.raises(SignalError):
        MatrixSignal(np.zeros((1, 5, 2, 3)), 1.0)
    with pytest.raises(SignalError):
        MatrixSignal(np.zeros((1, 1, 2, 2)), 1.0)
    with pytest.raises(SignalError):
        MatrixSignal(np.zeros((1, 5, 2, 2)), -1.0)
    with pytest.raises(SignalError):
        MatrixSignal(np.full((1, 5, 2, 2), np.inf), 1.0)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
def test_signal_rejects_non_finite_horizon(horizon):
    with pytest.raises(SignalError, match="horizon"):
        MatrixSignal(np.zeros((1, 5, 2, 2)), horizon)


def test_channel_zero_is_identity():
    u = constant_signal(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 4)
    assert np.allclose(u.channel(0), np.eye(2))
    with pytest.raises(SignalError):
        u.channel(2)


def test_grid_properties():
    u = constant_signal(np.eye(2), 2.0, 8)
    assert u.h == 0.25
    assert u.num_steps == 8
    assert np.allclose(u.grid, np.linspace(0.0, 2.0, 9))


def test_grid_is_built_once_and_read_only():
    u = constant_signal(np.eye(2), 2.0, 8)
    assert u.grid is u.grid
    assert not u.grid.flags.writeable
    assert np.array_equal(u.grid, np.linspace(0.0, 2.0, 9))
    with pytest.raises(ValueError):
        u.grid[1] = 5.0


def test_samples_are_immutable():
    u = constant_signal(np.eye(2), 1.0, 4)
    with pytest.raises(ValueError):
        u.samples[0, 0, 0, 0] = 5.0


def test_ubar_and_norm_constant():
    a = np.array([[0.0, 2.0], [1.0, 0.0]])  # norm1 = 2
    u = constant_signal(a, 0.5, 10)
    bar = ubar(u)
    assert np.allclose(bar.samples, 2.0)
    assert abs(signal_norm(u) - 1.0) < 1e-12  # 2 * 0.5
    # column sums: |1|+|3| = 4, |-2|+|0.5| = 2.5
    assert stack_norm1(np.array([[1.0, -2.0], [3.0, 0.5]])) == 4.0


def test_scaled():
    u = constant_signal(np.eye(2), 1.0, 4)
    assert np.allclose(u.scaled(3.0).samples, 3.0 * u.samples)


def test_spin_field_is_skew():
    for schedule in ("rot", "xzy"):
        u = spin_field(2.0, schedule, 1.0, 64)
        vals = u.channel(1)
        assert np.allclose(vals, -np.transpose(vals, (0, 2, 1)))
        assert u.dim == 3
    with pytest.raises(SignalError):
        spin_field(1.0, "abc", 1.0, 8)


@pytest.mark.parametrize("schedule", ["xzy", "x"])
@pytest.mark.parametrize("steps", [1, 7, 4096])
def test_spin_schedule_equals_the_per_node_axes(schedule, steps):
    # the axis of each node, looked up one node at a time
    t = np.linspace(0.0, 1.0, steps + 1)
    basis = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    idx = np.minimum((t * len(schedule)).astype(int), len(schedule) - 1)
    direction = np.array([basis[schedule[k]] for k in idx])
    want = 0.7 * np.einsum("ta,aij->tij", direction, np.stack(list(SPIN_GENERATORS.values())))
    assert spin_field(0.7, schedule, 1.0, steps).samples.tobytes() == want[None].tobytes()


@pytest.mark.parametrize("horizon", [float("nan"), 0.0, float("inf")])
def test_spin_schedule_refuses_a_bad_horizon(horizon):
    with pytest.raises(SignalError, match="horizon must be finite and positive"):
        spin_field(1.0, "xy", horizon, 4)

def test_random_smooth_signal_amplitude_and_determinism():
    u = random_smooth_signal(np.random.default_rng(7), 2, 2, 1.0, 50,
                             amplitude=0.3)
    v = random_smooth_signal(np.random.default_rng(7), 2, 2, 1.0, 50,
                             amplitude=0.3)
    assert np.abs(u.samples).max() <= 0.3 + 1e-12
    assert np.array_equal(u.samples, v.samples)


def test_csv_roundtrip(tmp_path):
    u = random_smooth_signal(np.random.default_rng(1), 2, 3, 2.0, 17)
    path = str(tmp_path / "sig.csv")
    signal_to_csv(u, path)
    v = signal_from_csv(path)
    assert v.m == u.m and v.dim == u.dim and v.num_steps == u.num_steps
    assert np.allclose(v.samples, u.samples, atol=0)
    assert abs(v.horizon - u.horizon) < 1e-12


def test_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("time,ch,a11\n0,1,1\n")
    with pytest.raises(SignalError):
        signal_from_csv(str(bad_header))

    nonuniform = tmp_path / "b.csv"
    nonuniform.write_text("t,ch,a11\n0.0,1,1\n0.1,1,1\n0.3,1,1\n")
    with pytest.raises(SignalError):
        signal_from_csv(str(nonuniform))

    missing_channel = tmp_path / "c.csv"
    missing_channel.write_text("t,ch,a11\n0.0,2,1\n0.1,2,1\n")
    with pytest.raises(SignalError):
        signal_from_csv(str(missing_channel))

    for name, text, message in (
        ("d.csv", "t,ch,a11,a12\n0.0,1,1,0\n0.1,1,1,0\n",
         "CSV matrix columns are not a square count in"),
        ("e.csv", "t,ch,a11\n", "no samples in"),
        ("f.csv", "t,ch,a11\n0.0,1,1\n0.1,1,1\n0.0,2,1\n0.2,2,1\n",
         "channels in {} disagree on the grid"),
    ):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(SignalError) as err:
            signal_from_csv(str(path))
        want = message.format(path) if "{}" in message else f"{message} {path}"
        assert str(err.value) == want
