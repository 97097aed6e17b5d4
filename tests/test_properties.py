"""Property tests of the shared ops: the adapter branch op, the Gaussian KL
and its factor loop in the network's KL, the KL weight schedule, the
model file, the model.json manifest and the config file."""

import functools
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bayeslora.adapter import VariationalAdapter, branch_backward, branch_forward
from bayeslora.cli import _load_trained, main
from bayeslora.configio import load_config
from bayeslora.kl import gaussian_kl
from bayeslora.network import AdapterLayer, SmallNet, kl_term, load_net, save_net
from bayeslora.parammaps import ParamMap, apply_map, map_derivative
from bayeslora.training import TrainConfig, build_small_net, kl_weights, kl_window

# Derandomized, so tier-1 runs the same examples every time.
_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_positive = st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False)
_modes = st.sampled_from(("uniform", "blob_ascending"))


@st.composite
def _branch_inputs(draw):
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r + 1, 5))
    batch = draw(st.integers(1, 6))
    signs = st.sampled_from([-1.0, 1.0])
    return (
        draw(arrays(np.float64, (r, n), elements=_finite)),            # mean_a
        draw(arrays(np.float64, (n, batch), elements=_finite)),        # hd
        draw(arrays(np.float64, (n, batch), elements=signs)),          # s
        draw(arrays(np.float64, (batch, r), elements=signs)),          # t
        draw(arrays(np.float64, (r, n), elements=_finite)),            # e
        draw(arrays(np.float64, (r, batch), elements=_finite)),        # dc
    )


@st.composite
def _gaussians(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    mean = draw(arrays(np.float64, shape, elements=_finite))
    omega = draw(arrays(np.float64, shape, elements=_positive))
    return mean, omega, draw(_positive)


@st.composite
def _nets(draw):
    """A net of random widths and ranks, either std map, any dropout, and
    entries anywhere in the finite float64 range (signed zeros and
    subnormals included)."""
    any_finite = st.floats(allow_nan=False, allow_infinity=False)

    def array(*shape):
        return draw(arrays(np.float64, shape, elements=any_finite))

    widths = draw(st.lists(st.integers(2, 6), min_size=2, max_size=4))
    layers = []
    for n, m in zip(widths[:-1], widths[1:]):
        r = draw(st.integers(1, min(m, n) - 1))
        adapter = VariationalAdapter(w0=array(m, n), b=array(m, r), mean_a=array(r, n), g=array(r, n))
        layers.append(AdapterLayer(adapter, bias=array(m)))
    n_classes = draw(st.integers(2, 4))
    return SmallNet(
        layers=layers,
        head_w=array(n_classes, widths[-1]),
        head_b=array(n_classes),
        param_map=draw(st.sampled_from(ParamMap)),
        dropout_p=draw(st.floats(0.0, 0.99)),
    )


def _arrays(net):
    """Every array of a net, by name."""
    out = {"head_w": net.head_w, "head_b": net.head_b}
    for i, layer in enumerate(net.layers):
        for name in ("w0", "b", "mean_a", "g"):
            out[f"{i}.{name}"] = getattr(layer.adapter, name)
        out[f"{i}.bias"] = layer.bias
    return out


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@_settings
@given(_nets())
def test_model_file_round_trips_bit_exactly(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.txt")
        save_net(net, path)
        back = load_net(path)
    assert back.param_map is net.param_map
    assert back.dropout_p.hex() == net.dropout_p.hex()
    before, after = _arrays(net), _arrays(back)
    assert list(after) == list(before)
    for name, array in before.items():
        assert _bits(after[name]) == _bits(array), name


@functools.cache
def _model_file() -> tuple[str, ...]:
    """The lines of a small saved model: two layers, dropout on."""
    net = build_small_net(2, (4, 3), 2, 2, TrainConfig(seed=5, dropout_p=0.1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_net(net, str(path))
        return tuple(path.read_text().splitlines())


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from(["nan", "inf", "1e400", "-1", "10", "", "0xzz", "-0x1.8p+1"]))
def test_model_file_with_one_token_replaced_loads_as_spelled_or_fails(data, token):
    """Any one space-separated token of a model file replaced: the loader
    raises a ValueError or returns the net the edited file spells, bit for
    bit.  A token without the 0x prefix always raises, though
    ``float.fromhex`` reads "-1", "10" and "1e400" as numbers."""
    lines = [line.split(" ") for line in _model_file()]
    i = data.draw(st.integers(0, len(lines) - 1))
    j = data.draw(st.integers(0, len(lines[i]) - 1))
    lines[i][j] = token
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
        try:
            net = load_net(str(path))
        except ValueError:
            return
        assert "0x" in token, f"entry {token!r} loaded without the 0x prefix"
        save_net(net, str(path))
        lines[i][j] = float.fromhex(token).hex()
        assert path.read_text().splitlines() == [" ".join(tokens) for tokens in lines]


@functools.cache
def _trained_ens() -> tuple[dict[str, str], tuple]:
    """The model.json and model files ``train`` writes for a tiny three-member
    ens, by file name, and the (model, seed) they load as."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "tiny.ini"
        config.write_text("[task]\nn_train = 60\nn_test = 40\n\n[net]\nhidden = 4\n\n"
                          "[train]\nsteps = 5\nbatch_size = 8\n")
        out = Path(tmp) / "ens"
        assert main(["train", "--config", str(config), "--method", "ens", "--out-dir", str(out)]) == 0
        files = {p.name: p.read_text() for p in out.iterdir() if p.name.startswith("model")}
        return files, _load_trained(str(out), TrainConfig())


# One JSON token: a string, a number, a literal or a punctuator.
_JSON_TOKEN = re.compile(r'"[^"]*"|-?[0-9][0-9.eE+-]*|true|false|null|[{}\[\],:]')


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from(["delete", "duplicate", "truncate", "replace"]))
def test_model_json_with_one_edit_loads_the_original_model_or_fails(data, edit):
    """One line of model.json deleted or duplicated, the file truncated, or
    one token replaced: ``_load_trained`` returns the model as trained or
    raises a ValueError, never another exception."""
    files, (model, seed) = _trained_ens()
    text = files["model.json"]
    if edit == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif edit == "replace":
        lo, hi = data.draw(st.sampled_from([m.span() for m in _JSON_TOKEN.finditer(text)]))
        token = data.draw(st.sampled_from(
            ["nan", "NaN", "inf", "Infinity", "1e400", "-1", "", "@junk", '"model-9.txt"']))
        text = text[:lo] + token + text[hi:]
    else:
        lines = text.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if edit == "delete" else [lines[i]] * 2
        text = "".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in dict(files, **{"model.json": text}).items():
            (Path(tmp) / name).write_text(body)
        try:
            back, back_seed = _load_trained(tmp, TrainConfig())
        except ValueError:
            return
    assert (back.spec, back_seed) == (model.spec, seed)
    assert [{k: _bits(v) for k, v in _arrays(net).items()} for net in back.models] == [
        {k: _bits(v) for k, v in _arrays(net).items()} for net in model.models]


_BENCHMARK_INI = Path(__file__).resolve().parents[1] / "configs" / "benchmark.ini"
# The SuiteConfig attribute that owns each section's keys ("" for the
# SuiteConfig itself), and the keys whose field has another name.
_SECTION_OWNERS = {"task": "task", "net": "", "train": "train", "schedule": "train", "suite": "",
                   "baselines": "baseline"}
_KEY_FIELDS = {"mode": "kl_mode", "n_samples": "n_samples_list"}


def _spelled(config, section: str, key: str, raw: str):
    """``config`` with only the field of ``section.key`` set to the value
    ``raw`` spells in that field's type; one entry for a list field."""
    owner_name, name = _SECTION_OWNERS[section], _KEY_FIELDS.get(key, key)
    owner = getattr(config, owner_name) if owner_name else config
    current = getattr(owner, name)
    value = (type(current[0])(raw),) if isinstance(current, tuple) else type(current)(raw)
    owner = replace(owner, **{name: value})
    return replace(config, **{owner_name: owner}) if owner_name else owner


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from(["nan", "inf", "1e400", "-1", "0", "1.5", "", "junk", "duplicate"]))
def test_config_with_one_edit_loads_as_spelled_or_names_the_key(data, edit):
    """One value of the benchmark config replaced, or one key line repeated:
    the loader raises a ValueError naming ``section.key`` (a repeat: the
    file and the line), or returns the original config with only that field
    changed, to the value the edit spells ("0" for "0.0" changes nothing)."""
    original = load_config(str(_BENCHMARK_INI))
    lines = _BENCHMARK_INI.read_text().splitlines()
    sections = {}
    section = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]")
        elif " = " in line and not line.startswith("#"):
            sections[i] = section
    i = data.draw(st.sampled_from(sorted(sections)))
    section, key = sections[i], lines[i].split(" = ")[0]
    if edit == "duplicate":
        lines.insert(i + 1, lines[i])
    else:
        lines[i] = f"{key} = {edit}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.ini"
        path.write_text("\n".join(lines) + "\n")
        try:
            config = load_config(str(path))
        except ValueError as exc:
            want = (f"{path}, line {i + 2}: key {key!r} repeats in section [{section}]" if edit == "duplicate"
                    else f"{section}.{key}: ")
            assert str(exc).startswith(want), str(exc)
            return
    assert edit != "duplicate", "a repeated key line loaded"
    assert config == _spelled(original, section, key, edit)


@_settings
@given(_branch_inputs())
def test_stochastic_ops_equal_mean_op_at_zero_omega(inputs):
    mean_a, hd, s, t, e, dc = inputs
    omega = np.zeros_like(mean_a)
    c_mean = branch_forward("mean", mean_a, omega, hd, ())
    d_mean_a, _, d_hd = branch_backward("mean", mean_a, omega, hd, (), dc)
    for mode, draws in (("flipout", (s, t, e)), ("shared", (e,))):
        np.testing.assert_array_equal(branch_forward(mode, mean_a, omega, hd, draws), c_mean)
        grads = branch_backward(mode, mean_a, omega, hd, draws, dc)
        np.testing.assert_array_equal(grads[0], d_mean_a)
        np.testing.assert_array_equal(grads[2], d_hd)


@_settings
@given(_gaussians())
def test_kl_nonnegative_and_zero_only_at_prior(q):
    mean, omega, sigma_p = q
    value, _, _ = gaussian_kl(mean, omega, sigma_p)
    tol = 1e-12 * mean.size * (1.0 + abs(np.log(sigma_p)))
    # Per entry the KL is m^2 / (2 sp^2) + f(omega / sp) with
    # f(x) = x^2/2 - log x - 1/2 >= (x - 1)^2 / 2, since f(1) = f'(1) = 0 and f'' >= 1.
    dev = max(np.abs(mean).max(), np.abs(omega - sigma_p).max()) / sigma_p
    assert value >= 0.5 * dev**2 * (1.0 - 1e-9) - tol
    if dev >= 1e-3:
        assert value > 0.0
    at_prior = np.full_like(omega, sigma_p)
    value_p, d_mean_p, d_omega_p = gaussian_kl(np.zeros_like(mean), at_prior, sigma_p)
    assert abs(value_p) <= tol
    np.testing.assert_array_equal(d_mean_p, 0.0)
    np.testing.assert_allclose(d_omega_p, 0.0, atol=1e-12 / sigma_p)


@_settings
@given(_gaussians())
def test_kl_gradient_matches_central_differences(q):
    mean, omega, sigma_p = q
    _, d_mean, d_omega = gaussian_kl(mean, omega, sigma_p)
    for param, grad in ((mean, d_mean), (omega, d_omega)):
        fd = np.empty_like(param)
        for idx in np.ndindex(param.shape):
            h = 1e-6 * max(1.0, abs(param[idx]))
            orig = param[idx]
            param[idx] = orig + h
            up = gaussian_kl(mean, omega, sigma_p)[0]
            param[idx] = orig - h
            dn = gaussian_kl(mean, omega, sigma_p)[0]
            param[idx] = orig
            fd[idx] = (up - dn) / (2.0 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-5 * (1.0 + np.abs(grad).max()))


@st.composite
def _kl_nets(draw, param_map):
    """A net of random widths (up to 40, so the reductions run past their
    unrolled blocks) and ranks; entries come from a drawn seed."""
    widths = draw(st.lists(st.integers(2, 40), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for n, m in zip(widths[:-1], widths[1:]):
        r = draw(st.integers(1, min(m, n, 6) - 1))
        g = rng.uniform(0.05, 2.0, (r, n)) * rng.choice([-1.0, 1.0], (r, n))
        adapter = VariationalAdapter(
            w0=rng.normal(size=(m, n)), b=rng.normal(size=(m, r)), mean_a=rng.normal(size=(r, n)), g=g
        )
        layers.append(AdapterLayer(adapter, bias=np.zeros(m)))
    return SmallNet(
        layers=layers, head_w=rng.normal(size=(2, widths[-1])), head_b=np.zeros(2), param_map=param_map,
    )


def _per_layer_kl(net, sigma_p):
    """The KL as a loop of ``gaussian_kl`` calls, one per layer in order,
    with each array's gradient by key."""
    value, grads = 0.0, {}
    for i, layer in enumerate(net.layers):
        ad = layer.adapter
        kl_a, grads[f"layers.{i}.mean_a"], d_omega = gaussian_kl(ad.mean_a, apply_map(net.param_map, ad.g), sigma_p)
        value += kl_a
        grads[f"layers.{i}.g"] = d_omega * map_derivative(net.param_map, ad.g)
    return value, grads


@pytest.mark.parametrize("param_map", list(ParamMap))
@_settings
@given(data=st.data(), sigma_p=_positive)
def test_kl_term_is_the_per_layer_gaussian_kl_sum_bit_for_bit(param_map, data, sigma_p):
    net = data.draw(_kl_nets(param_map))
    value, grad = kl_term(net, sigma_p)
    expected_value, expected_grads = _per_layer_kl(net, sigma_p)
    assert value.hex() == expected_value.hex()
    scattered = net.views(np.pad(grad, (net.kl_span.start, 0)))
    for key, array in scattered.items():
        expected = expected_grads.get(key, np.zeros_like(array))
        assert array.tobytes() == expected.tobytes(), key


@_settings
@given(_modes, st.integers(1, 10_000), st.integers(1, 512), st.floats(6.0, 16.0))
def test_schedule_weights_sum_to_one_over_the_window(mode, n_examples, batch_size, gamma):
    """Windows of 1 to about 12 400 minibatches; after one the weight holds."""
    config = TrainConfig(kl_mode=mode, batch_size=batch_size, gamma=gamma)
    window = kl_window(config, n_examples)
    weights = kl_weights(replace(config, steps=window + 3), n_examples)
    assert all(0.0 <= w <= 1.0 for w in weights)
    assert abs(math.fsum(weights[:window]) - 1.0) <= 1e-12
    assert weights[window:] == [weights[window - 1]] * 3


@_settings
@given(_modes, st.integers(1, 10**6), st.floats(0.5, 2.0))
def test_schedule_weights_finite_inside_a_huge_window(mode, n_examples, gamma):
    """Windows of up to about 10**40 minibatches: the first weights are
    finite, in [0, 1], and do not decrease."""
    config = TrainConfig(kl_mode=mode, batch_size=1, gamma=gamma, steps=50)
    weights = kl_weights(config, n_examples)
    assert all(math.isfinite(w) and 0.0 <= w <= 1.0 for w in weights)
    assert all(b >= a for a, b in zip(weights, weights[1:]))
