"""Tensor core: construction invariants, reference op values, the tape, TNSR files."""

import errno
import io
import math
import os
import re
import stat
import struct
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from _grad import probe_differences
from cvislr import tensor, vst
from cvislr.ensemble import read_predictions
from cvislr.errors import ContractError, FormatError, NumericError, ShapeError
from cvislr.tensor import (
    GradTape,
    Tensor,
    _layer_norm,
    _result,
    add,
    backward,
    layer_norm,
    matmul,
    read_tensor,
    tensor_mean,
    write_tensor,
)
from cvislr.vst import VstConfig, load_checkpoint, param_spec, wmsa_block

RNG = np.random.default_rng(20240811)


def assert_grads_close(fn, tensors, probe, rel=1e-4, h=1e-5):
    """The gradients of sum(fn() * probe), from ``backward(fn(), probe)``,
    match central differences."""
    grad_map = backward(fn(), probe)
    fd = [probe_differences(fn, probe, t.data, h) for t in tensors]
    for t, g_fd in zip(tensors, fd):
        g_an = grad_map[t]
        assert g_an.shape == t.shape
        denom = np.maximum(np.maximum(np.abs(g_fd), np.abs(g_an)), 1e-6)
        np.testing.assert_array_less(np.abs(g_fd - g_an) / denom, rel)


# ---------------------------------------------------------------------------
# construction invariants


class TestTensorInvariants:
    def test_shape_matches_data_length(self):
        t = Tensor(RNG.normal(size=(3, 4, 5)))
        assert math.prod(t.shape) == t.data.size

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.empty((2, 0, 3)))

    def test_scalar_tensor_stays_zero_rank(self):
        assert Tensor(3.5).shape == ()

    def test_data_is_contiguous_float64(self):
        t = Tensor(np.asfortranarray(RNG.normal(size=(4, 5))))
        assert t.data.flags.c_contiguous and t.data.dtype == np.float64

    @pytest.mark.filterwarnings("error")
    def test_float32_is_kept_and_any_other_dtype_widened(self):
        values = np.asfortranarray(RNG.normal(size=(4, 5)).astype(np.float32))
        t = Tensor(values)
        assert t.data.flags.c_contiguous and t.data.dtype == np.float32
        np.testing.assert_array_equal(t.data, values)
        for other in (np.ones(3, np.float16), np.arange(3), [1.0, 2.0], np.ones(3, ">f4"),
                      [True, False]):
            assert Tensor(other).data.dtype == np.float64
        # only bool, integer and float arrays hold real numbers: no silent NaN
        # for None, and no complex value cut to its real part
        for bad in ([None], np.array([1j]), "abc", [[1, 2], [3]]):
            with pytest.raises(ContractError, match="real numbers"):
                Tensor(bad)

    def test_reference_ops_widen_float32_operands(self):
        a, b = (RNG.normal(size=(2, 3)).astype(np.float32) for _ in range(2))
        got = add(matmul(a, b.T), 1.0).data
        want = add(matmul(a.astype(np.float64), b.T.astype(np.float64)), 1.0).data
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_ops_are_module_functions_only(self):
        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__",
                     "__matmul__", "sum", "mean", "backward"):
            assert not hasattr(Tensor, name), name
        with pytest.raises(TypeError):
            Tensor([1.0]) * 2.0


# ---------------------------------------------------------------------------
# matmul


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_row_times_column(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_triple_loop_oracle(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 5))
        expect = np.zeros((3, 5))
        for i in range(3):
            for j in range(5):
                for k in range(4):
                    expect[i, j] += a[i, k] * b[k, j]
        out = matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - expect).max() < 1e-12

    def test_triple_loop_oracle_extents_up_to_8(self):
        for m, k, n in [(1, 1, 1), (8, 8, 8), (2, 7, 3), (5, 1, 8)]:
            a, b = RNG.normal(size=(m, k)), RNG.normal(size=(k, n))
            expect = np.array([[sum(a[i, t] * b[t, j] for t in range(k))
                                for j in range(n)] for i in range(m)])
            assert np.abs(matmul(Tensor(a), Tensor(b)).data - expect).max() < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_rank_one_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_non_rank_two_operands_rejected(self):
        # rank-3 operands are rejected even when a batched product would exist
        for a_shape, b_shape in [((2, 3, 4), (3, 4, 5)), ((2, 3, 4), (4, 5)),
                                 ((3, 4), (2, 4, 5))]:
            with pytest.raises(ShapeError, match=re.escape(str(a_shape)) + ".*"
                               + re.escape(str(b_shape))):
                matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


# ---------------------------------------------------------------------------
# layer_norm


class TestLayerNorm:
    def test_constant_input_gives_zero(self):
        out = layer_norm(Tensor([4.0, 4.0, 4.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-10)

    def test_two_point_symmetry(self):
        out = layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)  # eps correction

    def test_row_statistics(self):
        x = Tensor(RNG.normal(size=(4, 8)) * 3 + 1)
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        var = x.data.var(axis=-1)
        np.testing.assert_array_less(np.abs(out.mean(axis=-1)), 1e-10)
        # the variance guard is the constant 1e-5
        np.testing.assert_allclose(out.var(axis=-1), var / (var + 1e-5), rtol=1e-12)

    def test_variance_guard_is_not_a_parameter(self):
        x, gain, bias = Tensor(np.ones((2, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4))
        with pytest.raises(TypeError):
            layer_norm(x, gain, bias, eps=-1.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_gradients(self):
        # the rule of tensor._layer_norm, which the model's nodes share
        x = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        g = Tensor(RNG.normal(size=5), requires_grad=True)
        b = Tensor(RNG.normal(size=5), requires_grad=True)
        w = RNG.normal(size=(3, 5))
        assert_grads_close(lambda: _ln(x, g, b), [x, g, b], w)

    def test_bit_identical_to_mean_formula(self):
        # the row statistics are sum / c, which is what ndarray.mean computes
        arr = RNG.normal(size=(4, 3, 7)) * 5 + 2
        gd, bd = RNG.normal(size=7), RNG.normal(size=7)
        upstream = RNG.normal(size=arr.shape)
        x = Tensor(arr, requires_grad=True)
        out = _ln(x, Tensor(gd), Tensor(bd))
        dx = backward(out, upstream)[x]
        assert layer_norm(arr, gd, bd).data.tobytes() == out.data.tobytes()

        mu = arr.mean(axis=-1, keepdims=True)
        xc = arr - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = xc * inv
        dxhat = upstream * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        np.testing.assert_array_equal(out.data, xhat * gd + bd)
        np.testing.assert_array_equal(dx, inv * (dxhat - m1 - xhat * m2))


# ---------------------------------------------------------------------------
# gelu, which lives inside the transformer block


def _gelu_block(bias):
    """One block, in the dtype of ``bias``, whose first C output channels are
    gelu(bias[:C]) exactly.

    ``bias`` is fc1's bias, a (4C,) tensor.  With a zero grid, a zero
    attention projection, a zero fc1 weight and LN2's gain 0, the bias
    reaches gelu unchanged at every token; fc2 then selects the first C
    hidden channels.
    """
    c, dtype = bias.size // 4, bias.data.dtype
    cfg = VstConfig(size="small", embed_dim=c, depths=(1, 1, 1, 1), heads=(1, 1, 1, 1),
                    window=(2, 2, 2), num_classes=2, input_geometry=(8, 32, 32))
    params = {name: Tensor(np.zeros(shape, dtype)) for name, shape in param_spec(cfg).items()
              if name.startswith("stage1.block1.")}
    params["stage1.block1.ffn.fc1.bias"] = bias
    params["stage1.block1.ffn.fc2.weight"] = Tensor(np.eye(4 * c, c, dtype=dtype))
    return wmsa_block(Tensor(np.zeros((1, 2, 2, 2, c), dtype)), params, cfg, shifted=False)


def gelu(values, dtype=np.float64):
    """Exact gelu of each value, read out of one transformer block computing in ``dtype``."""
    values = np.atleast_1d(np.asarray(values, dtype=dtype))
    out = _gelu_block(Tensor(np.concatenate([values, np.zeros(3 * values.size, dtype)]))).data
    assert out.dtype == dtype and (out == out[0, 0, 0, 0]).all()  # every token reads one row
    return out[0, 0, 0, 0]


class TestGelu:
    def test_zero(self):
        assert gelu(0.0)[0] == 0.0

    def test_asymptote(self):
        assert abs(gelu(10.0)[0] - 10.0) < 1e-6

    def test_erf_oracle_at_one(self):
        with mpmath.workdps(60):
            want = float(mpmath.mpf(1) * mpmath.ncdf(1))
        assert abs(gelu(1.0)[0] - want) < 1e-10

    def test_exact_form_not_tanh_fit(self):
        # the tanh fit differs from x*Phi(x) by ~1e-4 near x=2
        x = 2.0
        tanh_fit = 0.5 * x * (1 + math.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)))
        exact = gelu(x)[0]
        with mpmath.workdps(60):
            want = float(mpmath.mpf(x) * mpmath.ncdf(x))
        assert abs(exact - want) < 1e-12
        assert abs(exact - tanh_fit) > 1e-6
        # bit for bit the erf form x * 0.5 * (1 + erf(x / sqrt(2)))
        xs = RNG.normal(size=16) * 3
        np.testing.assert_array_equal(
            gelu(xs), xs * (0.5 * (1.0 + erf(xs * (1.0 / math.sqrt(2.0))))))

    def test_gradients(self):
        bias = Tensor(np.concatenate([RNG.normal(size=3), np.zeros(9)]), requires_grad=True)
        assert_grads_close(lambda: _gelu_block(bias), [bias], np.ones((1, 2, 2, 2, 3)))


#: The float32 erf's bound against float64 erf, in float32 spacings of the rounded result.
ERF32_ULPS = 8
#: The float32 gelu's bound against x * Phi(x), per unit |x|: 8 float32 spacings at 1/2.
GELU32_TOL = 8 * 2.0**-24


class TestErfFloat32:
    """``vst._erf_in_place`` on float32 values: a rational, not scipy's erf."""

    def test_within_the_ulp_bound_on_a_dense_grid(self):
        # every 1021st float32 bit pattern of [0, 4.5], subnormals included,
        # their negatives, and the edges
        top = int(np.float32(4.5).view(np.uint32))
        xs = np.arange(0, top + 1, 1021, dtype=np.uint32).view(np.float32)
        xs = np.concatenate([xs, -xs, np.float32([0.0, -0.0, 4.0, -4.0, 1e-45, -1e-45,
                                                  np.inf, -np.inf])])
        want = erf(xs.astype(np.float64))
        got = vst._erf_in_place(xs.copy())
        assert got.dtype == np.float32
        ulps = np.abs(got - want) / np.spacing(np.abs(want.astype(np.float32)))
        assert ulps.max() <= ERF32_ULPS

    def test_special_values_and_odd_symmetry(self):
        got = vst._erf_in_place(np.float32([np.nan, np.inf, -np.inf, 0.0, -0.0]))
        assert np.isnan(got[0]) and list(got[1:3]) == [1.0, -1.0]
        assert not got[3:].any() and list(np.signbit(got[3:])) == [False, True]
        xs = (RNG.normal(size=4096) * 3).astype(np.float32)
        assert np.array_equal(vst._erf_in_place(-xs), -vst._erf_in_place(xs.copy()))


class TestGeluFloat32:
    """The float32 block's gelu, within ``GELU32_TOL * |x|`` of x * Phi(x)."""

    def test_zero(self):
        assert gelu(0.0, np.float32)[0] == 0.0

    def test_asymptote(self):
        assert gelu(10.0, np.float32)[0] == 10.0

    def test_against_mpmath(self):
        xs = np.linspace(-6, 6, 191, dtype=np.float32)
        got = gelu(xs, np.float32)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.mpf(float(x)) * mpmath.ncdf(float(x))) for x in xs])
        assert (np.abs(got - want) <= GELU32_TOL * np.abs(xs)).all()

    def test_exact_form_not_tanh_fit(self):
        x = np.float32(2.0)
        tanh_fit = 0.5 * x * (1 + math.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)))
        assert abs(gelu(x, np.float32)[0] - tanh_fit) > 1e-6

    def test_gradients_follow_the_float64_block(self):
        values = np.concatenate([RNG.normal(size=16) * 3, np.zeros(48)])
        grads = {}
        for dtype in (np.float32, np.float64):
            bias = Tensor(values.astype(dtype), requires_grad=True)
            grads[dtype] = backward(_gelu_block(bias), np.ones((1, 2, 2, 2, 16)))[bias]
        assert grads[np.float32].dtype == np.float32
        np.testing.assert_allclose(grads[np.float32], grads[np.float64], rtol=0, atol=1e-5)


# ---------------------------------------------------------------------------
# backward + tape


def _product(a, b):
    """Elementwise a * b of two same-shape tensors: a test-local op for tapes."""
    return _result(a.data * b.data, "product", (a, b), lambda g: (g * b.data, g * a.data))


def _plus(a, b):
    """a + b, with ``b`` of a's shape or one row broadcast over a's rows."""
    return _result(a.data + b.data, "plus", (a, b),
                   lambda g: (g, g if b.shape == a.shape else g.sum(axis=0)))


def _shift(x, c):
    """x + c for a constant ``c``: the seed passes through unchanged."""
    return _result(x.data + c, "shift", (x,), lambda g: (g,))


def _mean(x):
    """The mean over every entry of ``x``: a scalar loss."""
    return _result(x.data.mean(), "mean", (x,), lambda g: (np.full(x.shape, g / x.size),))


def _ln(x, gain, bias):
    """Layer norm as a tape node: the output and rule of ``tensor._layer_norm``."""
    out, rule = _layer_norm(x.data, gain.data, bias.data)
    return _result(out, "layer_norm", (x, gain, bias), rule)


class TestBackward:
    def test_seed_reaches_a_leaf_unchanged(self):
        x = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        seed = RNG.normal(size=(2, 2))
        grads = backward(_shift(x, 1.0), seed)
        assert grads[x].tobytes() == seed.tobytes()

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        grads = backward(_product(x, x), np.ones(2))
        np.testing.assert_allclose(grads[x], [2.0, 4.0], atol=1e-15)

    def test_composite_expression_fd(self):
        a = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(RNG.normal(size=5), requires_grad=True)  # a row added to every row
        g = Tensor(RNG.normal(size=5), requires_grad=True)
        b = Tensor(RNG.normal(size=5), requires_grad=True)
        c = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)

        def fn():
            return _product(_ln(_plus(a, w), g, b), c)

        assert_grads_close(fn, [a, w, g, b, c], RNG.normal(size=(3, 5)), rel=1e-4, h=1e-5)

    def test_non_scalar_loss_rejected(self):
        # with no seed the output must be a scalar loss
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError, match="no seed"):
            backward(_shift(x, 2.0))

    def test_disconnected_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(1.0, requires_grad=True))

    def test_scalar_loss_needs_no_seed(self):
        x = Tensor(RNG.normal(size=3), requires_grad=True)
        grads = backward(_mean(_product(x, x)))
        np.testing.assert_allclose(grads[x], 2.0 * x.data / 3, rtol=1e-15)

    @pytest.mark.parametrize("seed", [np.ones((3, 2)), np.ones(6), np.ones((1, 2, 3)), 1.0],
                             ids=["transposed", "flat", "extra-axis", "scalar"])
    def test_seed_of_the_wrong_shape_rejected(self, seed):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = _shift(x, 1.0)
        with pytest.raises(ContractError, match=r"shape \(2, 3\)"):
            backward(out, seed)
        # a rejected seed consumes nothing
        np.testing.assert_array_equal(backward(out, np.ones((2, 3)))[x], np.ones((2, 3)))

    @pytest.mark.parametrize("seed", [
        "abc", np.full((2, 3), "a"), np.full((2, 3), None), np.ones((2, 3), dtype=bool),
        np.ones((2, 3), dtype=complex), [[1.0, 2.0, 3.0], [4.0]],
        Tensor(np.ones((2, 3))), object()],
        ids=["str", "str-array", "object-array", "bool", "complex", "ragged", "tensor",
             "object"])
    def test_non_numeric_seed_rejected(self, seed):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ContractError):
            backward(_shift(x, 1.0), seed)

    def test_seed_takes_the_dtype_of_the_output(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        grads = backward(_shift(x, 1.0), np.arange(6).reshape(2, 3))
        assert grads[x].dtype == np.float32

    def test_integer_seed_is_widened(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        grads = backward(_shift(x, 1.0), np.arange(6).reshape(2, 3))
        assert grads[x].dtype == np.float64
        np.testing.assert_array_equal(grads[x], np.arange(6.0).reshape(2, 3))

    def test_seed_array_is_not_written(self):
        # _plus passes the seed straight to both leaves, so their gradients
        # would be the caller's own array if backward did not copy it
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        y = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        seed = RNG.normal(size=(2, 3))
        before = seed.copy()
        grads = backward(_plus(x, y), seed)
        assert seed.tobytes() == before.tobytes()
        for g in grads.values():
            assert not np.shares_memory(g, seed)
            g += 1.0
        assert seed.tobytes() == before.tobytes()

    def test_second_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = _product(x, x)
        backward(y, np.ones(3))
        with pytest.raises(ContractError, match="already called"):
            backward(y, np.ones(3))

    def test_second_loss_through_consumed_node_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = _product(x, x)
        backward(_mean(y))
        # a new, seeded sweep over the consumed interior node y
        with pytest.raises(ContractError, match="already called"):
            backward(_shift(y, 1.0), np.ones(3))

    def test_returns_leaf_gradients_only(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        h = _product(x, w)
        grads = backward(_product(h, Tensor(RNG.normal(size=(2, 3)))), np.ones((2, 3)))
        assert set(grads) == {x, w}
        assert not h.requires_grad

    def test_grad_shapes_match(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        y = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        grads = backward(_plus(x, y), np.ones((2, 3)))
        assert grads[x].shape == (2, 3) and grads[y].shape == (3,)

    def test_tape_lists_a_chain_oldest_first(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = _plus(x, x)
        z = _plus(y, x)
        out = _product(z, x)
        loss = _mean(out)
        tape = GradTape.trace(loss)
        assert tape.nodes == [y.node, z.node, out.node, loss.node]
        assert GradTape.trace(out).nodes == tape.nodes[:-1]
        for before, node in zip(tape.nodes, tape.nodes[1:]):
            assert [p.node for p in node.parents if p.node is not None] == [before]

    @pytest.mark.parametrize("join", [lambda y, z: _plus(y, y), lambda y, z: _product(z, y)],
                             ids=["same-tensor-twice", "two-nodes"])
    def test_two_recorded_parents_refused(self, join):
        x = Tensor(np.ones(2), requires_grad=True)
        y = _shift(x, 1.0)
        z = _shift(y, 1.0)
        out = join(y, z)
        with pytest.raises(ContractError, match="more than one recorded parent"):
            GradTape.trace(out)
        with pytest.raises(ContractError, match="more than one recorded parent"):
            backward(out, np.ones(2))
        # no rule of the refused graph ran
        assert out.node.backward is not None and y.node.backward is not None

    def test_refused_graph_can_be_swept_below_the_refusal(self):
        x = Tensor(RNG.normal(size=2), requires_grad=True)
        y = _product(x, x)
        with pytest.raises(ContractError):
            backward(_plus(y, y), np.ones(2))
        # the chain through y was not consumed, so a sweep from y still runs
        grads = backward(_shift(y, 1.0), np.ones(2))
        np.testing.assert_allclose(grads[x], 2.0 * x.data, rtol=1e-15)

    def test_tape_of_consumed_graph_lists_its_nodes(self):
        # perfbench counts a step's tape nodes after its backward
        x = Tensor(np.ones(3), requires_grad=True)
        y = _product(x, x)
        loss = _mean(_shift(y, 1.0))
        nodes = GradTape.trace(loss).nodes
        backward(loss)
        assert GradTape.trace(loss).nodes == nodes and len(nodes) == 3
        assert all(node.backward is None for node in nodes)

    def test_tape_keeps_one_node_list(self):
        assert GradTape.__slots__ == ("nodes",)
        x = Tensor(np.ones(2), requires_grad=True)
        assert GradTape.trace(x).nodes == []

    def test_diamond_reuse_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = _plus(x, x)  # same tensor twice
        grads = backward(y, np.ones(1))
        np.testing.assert_array_equal(grads[x], [2.0])

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            # w feeds two nodes, so its gradient is a sum
            h = _ln(_product(x, w), Tensor(np.ones(4)), Tensor(np.zeros(4)))
            grads = backward(_product(_product(h, w), x), rng.normal(size=(4, 4)))
            return grads[x].copy(), grads[w].copy()

        (gx1, gw1), (gx2, gw2) = run(), run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# the reference ops are forward-only

#: Each reference op with untracked operands: an array, a Python float, a list.
REFERENCE_CALLS = {
    "add": (add, (np.arange(6.0).reshape(2, 3), 0.25), {}),
    "matmul": (matmul, (np.arange(6.0).reshape(2, 3), [[1.0], [2.0], [3.0]]), {}),
    "layer_norm": (layer_norm, (np.arange(6.0).reshape(2, 3), [1.0, 2.0, 3.0], np.zeros(3)),
                   {}),
    "tensor_mean": (tensor_mean, (np.arange(6.0).reshape(2, 3),), {"axis": 1}),
}


class TestReferenceOps:
    @pytest.mark.parametrize("name", REFERENCE_CALLS)
    def test_untracked_operands_record_no_node(self, name):
        op, operands, kwargs = REFERENCE_CALLS[name]
        out = op(*operands, **kwargs)
        want = op(*map(Tensor, operands), **kwargs)
        for t in (out, want):
            assert isinstance(t, Tensor) and t.node is None and not t.requires_grad
        assert out.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("name", REFERENCE_CALLS)
    def test_tracked_operand_refused(self, name):
        # a leaf or a node's output, in any operand position
        op, operands, kwargs = REFERENCE_CALLS[name]
        for i, value in enumerate(operands):
            leaf = Tensor(value, requires_grad=True)
            for tracked in (leaf, _shift(leaf, 0.0)):
                args = [*operands[:i], tracked, *operands[i + 1:]]
                with pytest.raises(ContractError, match="forward-only"):
                    op(*args, **kwargs)


class TestStructuralOps:
    def test_add_of_python_float_is_a_constant(self):
        # the float becomes a constant operand with the same values
        x = Tensor(RNG.normal(size=(2, 3)))
        out = add(x, 0.25)
        np.testing.assert_array_equal(out.data, x.data + 0.25)

    def test_mean_axes(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)))
        assert tensor_mean(x, axis=(0, 2)).shape == (3,)
        assert tensor_mean(x, axis=1).shape == (2, 4)
        assert tensor_mean(x, axis=(0, 1, 2)).shape == ()
        with pytest.raises(TypeError):
            tensor_mean(x)  # the axis is required
        with pytest.raises(ContractError, match="axis"):
            tensor_mean(x, None)


# ---------------------------------------------------------------------------
# hypothesis property checks


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**31 - 1))
    def test_matmul_matches_oracle(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        expect = np.array([[sum(a[i, t] * b[t, j] for t in range(k))
                            for j in range(n)] for i in range(m)])
        assert np.abs(matmul(Tensor(a), Tensor(b)).data - expect).max() < 1e-12


# ---------------------------------------------------------------------------
# TNSR serialization


class _Unseekable(io.RawIOBase):
    """A readable byte stream that cannot seek, like a pipe."""

    def __init__(self, blob):
        self._src = io.BytesIO(blob)

    def readable(self):
        return True

    def readinto(self, b):
        return self._src.readinto(b)


class _Chunks:
    """A write-only stream that records the len() of each write."""

    def __init__(self):
        self.lengths = []

    def write(self, b):
        self.lengths.append(len(b))
        return len(b)


def reference_tnsr(arr) -> bytes:
    """TNSR bytes framed field by field: magic, u32 rank, u64 per extent, f32 payload."""
    head = b"TNSR" + struct.pack("<I", arr.ndim)
    for e in arr.shape:
        head += struct.pack("<Q", e)
    return head + np.ascontiguousarray(arr, dtype="<f4").tobytes()


class TestTnsrFormat:
    @pytest.mark.parametrize("arr", [
        RNG.normal(size=(5,)),
        RNG.normal(size=(3, 4)),
        RNG.normal(size=(2, 3, 4)),
        RNG.normal(size=(2, 1, 3, 2)),
        RNG.normal(size=(1, 2, 2, 3, 2)),
        RNG.normal(size=(4, 6)).T,
        np.arange(-6, 6).reshape(3, 4),
    ], ids=["rank1", "rank2", "rank3", "rank4", "rank5", "transposed", "integer"])
    def test_bytes_match_the_reference_framing(self, arr, tmp_path):
        want = reference_tnsr(arr)
        path = tmp_path / "x.tnsr"
        write_tensor(str(path), arr)
        assert path.read_bytes() == want
        buf = io.BytesIO()
        write_tensor(buf, arr)
        assert buf.getvalue() == want
        chunks = _Chunks()
        write_tensor(chunks, arr)
        assert sum(chunks.lengths) == len(want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e300, -1e39, math.nan, math.inf],
                             ids=["beyond-f32", "below-f32", "nan", "inf"])
    def test_non_finite_in_f32_refused_on_write(self, value):
        buf = io.BytesIO()
        with pytest.raises(NumericError, match="NaN or infinite"):
            write_tensor(buf, np.array([value, 1.0]))
        assert buf.getvalue() == b""

    def test_f32_bit_exact_round_trip(self):
        values = RNG.normal(size=(3, 4, 2)).astype(np.float32).astype(np.float64)
        buf = io.BytesIO()
        write_tensor(buf, Tensor(values))
        buf.seek(0)
        back = read_tensor(buf)
        # the stored float32 values, in a fresh array a caller may write to
        assert back.data.dtype == np.float32 and back.data.flags.writeable
        assert np.array_equal(back.data, values)
        buf2 = io.BytesIO()
        write_tensor(buf2, back)
        assert buf.getvalue() == buf2.getvalue()

    def test_scalar_and_vector_shapes(self):
        for shape in [(), (1,), (5,), (2, 1, 3)]:
            buf = io.BytesIO()
            write_tensor(buf, Tensor(np.ones(shape)))
            buf.seek(0)
            assert read_tensor(buf).shape == shape

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_tensor(io.BytesIO(b"XXXX" + b"\0" * 16))

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_tensor(buf, Tensor(np.ones((2, 3))))
        blob = buf.getvalue()[:-5]
        with pytest.raises(FormatError, match="truncat"):
            read_tensor(io.BytesIO(blob))

    def test_truncated_payload_on_unseekable_stream(self):
        buf = io.BytesIO()
        write_tensor(buf, Tensor(np.ones((2, 3))))
        stream = io.BufferedReader(_Unseekable(buf.getvalue()[:-5]))
        assert not stream.seekable()
        with pytest.raises(FormatError, match="truncated tensor payload"):
            read_tensor(stream)

    @pytest.mark.parametrize("read, blob", [
        (read_tensor, b"TNSR" + struct.pack("<IQ", 1, 2**40)),
        (load_checkpoint, b"VSTC" + struct.pack("<I", 2**32 - 1)),
        (read_predictions, b"PRED" + struct.pack("<IIB", 2**20, 4096, 0)),
        (read_predictions, b"PRED" + struct.pack("<IIB", 2**16, 1024, 0)),
    ], ids=["tnsr-4TiB", "vstc-header-4GB", "pred-32GiB", "pred-537MB"])
    def test_a_corrupt_size_on_an_unseekable_stream_allocates_only_what_arrived(self, read,
                                                                                  blob):
        stream = io.BufferedReader(_Unseekable(blob))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                read(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_an_unseekable_stream_reads_in_chunks_into_writable_values(self, monkeypatch):
        monkeypatch.setattr(tensor, "_READ_CHUNK", 8)
        values = RNG.normal(size=(3, 5)).astype(np.float32)
        buf = io.BytesIO()
        write_tensor(buf, values)
        stream = io.BufferedReader(_Unseekable(buf.getvalue() + b"next"))
        got = read_tensor(stream).data
        assert got.dtype == np.float32 and got.flags.writeable
        assert np.array_equal(got, values)
        assert stream.read() == b"next"

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(b"TNSR\x02"))

    def test_trailing_bytes_in_file_rejected(self, tmp_path):
        buf = io.BytesIO()
        write_tensor(buf, Tensor(np.ones((2, 2))))
        path = tmp_path / "junk.tnsr"
        path.write_bytes(buf.getvalue() + b"garbage")
        for name in (str(path), path):
            with pytest.raises(FormatError, match="after its declared payload"):
                read_tensor(name)
        # a stream may hold more after one record (checkpoints chain them)
        stream = io.BytesIO(buf.getvalue() + b"garbage")
        assert read_tensor(stream).shape == (2, 2)
        assert stream.read() == b"garbage"

    def test_zero_extent_rejected_on_read(self):
        import struct

        blob = b"TNSR" + struct.pack("<I", 2) + struct.pack("<QQ", 2, 0)
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(blob))

    def test_oversized_extent_rejected_before_reading(self, tmp_path):
        import struct

        # 21 bytes whose header declares 2**62 values
        blob = b"TNSR" + struct.pack("<IQ", 1, 2**62) + b"\0" * 5
        with pytest.raises(FormatError, match="declares"):
            read_tensor(io.BytesIO(blob))
        path = tmp_path / "huge.tnsr"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="declares"):
            read_tensor(str(path))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("word", [0x7FC00000, 0x7FA00000, 0x7F800000, 0xFF800000],
                             ids=["nan", "signaling-nan", "inf", "-inf"])
    def test_non_finite_payload_rejected(self, word, tmp_path):
        import struct

        # words of a rank-1, two-value payload: the bad value, then 1.0
        blob = b"TNSR" + struct.pack("<IQII", 1, 2, word, 0x3F800000)
        with pytest.raises(FormatError, match="NaN or infinite"):
            read_tensor(io.BytesIO(blob))
        path = tmp_path / "bad.tnsr"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="NaN or infinite"):
            read_tensor(str(path))

    def test_finiteness_is_checked_in_small_slices(self):
        # 2**22 values: a check of the whole payload at once holds 4 MiB of bools
        values = np.ones((2**10, 2**12), dtype=np.float32)
        buf = io.BytesIO()
        write_tensor(buf, values)
        buf.seek(0)
        tracemalloc.start()
        try:
            got = read_tensor(buf).data
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, values) and peak <= values.nbytes + 2**20
        blob = bytearray(buf.getvalue())
        blob[-4:] = struct.pack("<f", np.inf)  # the last value, in the last slice
        with pytest.raises(FormatError, match="NaN or infinite"):
            read_tensor(io.BytesIO(blob))

    def test_file_path_round_trip(self, tmp_path):
        values = RNG.normal(size=(4, 4)).astype(np.float32).astype(np.float64)
        for path in (str(tmp_path / "x.tnsr"), tmp_path / "y.tnsr"):
            write_tensor(path, Tensor(values))
            assert np.array_equal(read_tensor(path).data, values)


# ---------------------------------------------------------------------------
# writing a path: every writer opens its path through ``_stream``, so
# ``write_tensor`` stands for all six here


class TestPathWrites:
    def test_a_symlink_stays_and_its_target_gets_the_bytes(self, tmp_path):
        target = tmp_path / "real.tnsr"
        target.write_bytes(b"old")
        link = tmp_path / "link.tnsr"
        link.symlink_to("real.tnsr")
        write_tensor(str(link), np.ones(3))
        assert link.is_symlink() and os.readlink(link) == "real.tnsr"
        assert target.read_bytes() == reference_tnsr(np.ones(3))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tnsr", "real.tnsr"]

    def test_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        # a daemon: were the FIFO replaced, the reader would block in open
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_tensor(str(fifo), np.ones(3))
        reader.join(timeout=30)
        assert not reader.is_alive() and got == [reference_tnsr(np.ones(3))]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_a_directory_at_the_path_is_refused_and_left_alone(self, tmp_path):
        (tmp_path / "dir").mkdir()
        with pytest.raises(OSError):
            write_tensor(str(tmp_path / "dir"), np.ones(3))
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    def test_a_missing_directory_error_names_the_callers_path(self, tmp_path):
        path = str(tmp_path / "missing" / "x.tnsr")
        with pytest.raises(OSError) as info:
            write_tensor(path, np.ones(3))
        assert info.value.errno == errno.ENOENT
        assert info.value.filename == path and repr(path) in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_a_written_file_gets_the_mode_a_plain_open_gives(self, tmp_path):
        # a replaced file takes the umask's mode, not the old file's
        plain = tmp_path / "plain"
        with open(plain, "wb"):
            pass
        new, old = tmp_path / "new.tnsr", tmp_path / "old.tnsr"
        old.write_bytes(b"old")
        old.chmod(0o600 if plain.stat().st_mode & 0o777 != 0o600 else 0o640)
        for path in (new, old):
            write_tensor(str(path), np.ones(3))
            assert path.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.tnsr", "old.tnsr", "plain"]
