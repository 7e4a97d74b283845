"""Tensor core: construction invariants, op semantics, gradients, TNSR files."""

import io
import math
import re
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from _grad import probe_differences
from cvislr.errors import ContractError, FormatError, NumericError, ShapeError
from cvislr.tensor import (
    GradTape,
    Tensor,
    _result,
    add,
    backward,
    layer_norm,
    matmul,
    read_tensor,
    tensor_mean,
    write_tensor,
)
from cvislr.vst import VstConfig, param_spec, wmsa_block

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

    def test_gradients(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        assert_grads_close(lambda: matmul(a, b), [a, b], RNG.normal(size=(3, 2)))


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
        x = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        g = Tensor(RNG.normal(size=5), requires_grad=True)
        b = Tensor(RNG.normal(size=5), requires_grad=True)
        w = RNG.normal(size=(3, 5))
        assert_grads_close(lambda: layer_norm(x, g, b), [x, g, b], w)

    def test_bit_identical_to_mean_formula(self):
        # the row statistics are sum / c, which is what ndarray.mean computes
        arr = RNG.normal(size=(4, 3, 7)) * 5 + 2
        gd, bd = RNG.normal(size=7), RNG.normal(size=7)
        upstream = RNG.normal(size=arr.shape)
        x = Tensor(arr, requires_grad=True)
        out = layer_norm(x, Tensor(gd), Tensor(bd))
        dx = backward(out, upstream)[x]

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
    """One block whose first C output channels are gelu(bias[:C]) exactly.

    ``bias`` is fc1's bias, a (4C,) tensor.  With a zero grid, a zero
    attention projection, a zero fc1 weight and LN2's gain 0, the bias
    reaches gelu unchanged at every token; fc2 then selects the first C
    hidden channels.
    """
    c = bias.size // 4
    cfg = VstConfig(size="small", embed_dim=c, depths=(1, 1, 1, 1), heads=(1, 1, 1, 1),
                    window=(2, 2, 2), num_classes=2, input_geometry=(8, 32, 32))
    params = {name: Tensor(np.zeros(shape)) for name, shape in param_spec(cfg).items()
              if name.startswith("stage1.block1.")}
    params["stage1.block1.ffn.fc1.bias"] = bias
    params["stage1.block1.ffn.fc2.weight"] = Tensor(np.eye(4 * c, c))
    return wmsa_block(Tensor(np.zeros((1, 2, 2, 2, c))), params, cfg, shifted=False)


def gelu(values):
    """Exact gelu of each value, read out of one transformer block."""
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    out = _gelu_block(Tensor(np.concatenate([values, np.zeros(3 * values.size)]))).data
    assert (out == out[0, 0, 0, 0]).all()  # every token reads the same row
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


# ---------------------------------------------------------------------------
# backward + tape


def _product(a, b):
    """Elementwise a * b of two same-shape tensors: a test-local op for tapes."""
    return _result(a.data * b.data, "product", (a, b), lambda g: (g * b.data, g * a.data))


class TestBackward:
    def test_seed_reaches_a_leaf_unchanged(self):
        x = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        seed = RNG.normal(size=(2, 2))
        grads = backward(add(x, 1.0), seed)
        assert grads[x].tobytes() == seed.tobytes()

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        grads = backward(_product(x, x), np.ones(2))
        np.testing.assert_allclose(grads[x], [2.0, 4.0], atol=1e-15)

    def test_composite_expression_fd(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        g = Tensor(RNG.normal(size=5), requires_grad=True)
        b = Tensor(RNG.normal(size=5), requires_grad=True)

        def fn():
            h = layer_norm(matmul(a, w), g, b)
            return tensor_mean(_product(_product(h, h), h), axis=0)

        assert_grads_close(fn, [a, w, g, b], RNG.normal(size=5), rel=1e-4, h=1e-5)

    def test_non_scalar_loss_rejected(self):
        # with no seed the output must be a scalar loss
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError, match="no seed"):
            backward(add(x, 2.0))

    def test_disconnected_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(1.0, requires_grad=True))

    def test_scalar_loss_needs_no_seed(self):
        x = Tensor(RNG.normal(size=3), requires_grad=True)
        grads = backward(tensor_mean(_product(x, x), axis=0))
        np.testing.assert_allclose(grads[x], 2.0 * x.data / 3, rtol=1e-15)

    @pytest.mark.parametrize("seed", [np.ones((3, 2)), np.ones(6), np.ones((1, 2, 3)), 1.0],
                             ids=["transposed", "flat", "extra-axis", "scalar"])
    def test_seed_of_the_wrong_shape_rejected(self, seed):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = add(x, 1.0)
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
            backward(add(x, 1.0), seed)

    def test_integer_seed_is_widened(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        grads = backward(add(x, 1.0), np.arange(6).reshape(2, 3))
        assert grads[x].dtype == np.float64
        np.testing.assert_array_equal(grads[x], np.arange(6.0).reshape(2, 3))

    def test_seed_array_is_not_written(self):
        # add passes the seed straight to both leaves, so their gradients
        # would be the caller's own array if backward did not copy it
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        y = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        seed = RNG.normal(size=(2, 3))
        before = seed.copy()
        grads = backward(add(x, y), seed)
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
        backward(tensor_mean(y, axis=0))
        # a new, seeded sweep over the consumed interior node y
        with pytest.raises(ContractError, match="already called"):
            backward(add(y, y), np.ones(3))

    def test_returns_leaf_gradients_only(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        h = matmul(x, w)
        grads = backward(_product(h, h), np.ones((2, 2)))
        assert set(grads) == {x, w}
        assert not h.requires_grad

    def test_grad_shapes_match(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        y = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        grads = backward(add(x, y), np.ones((2, 3)))
        assert grads[x].shape == (2, 3) and grads[y].shape == (3,)

    def test_tape_topological_order(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = add(x, x)
        z = add(y, x)
        out = _product(z, y)
        loss = tensor_mean(out, axis=0)
        tape = GradTape.trace(loss)
        assert len(tape.nodes) == 4 and tape.nodes[-1] is loss.node
        assert GradTape.trace(out).nodes == tape.nodes[:-1]
        seen = set()
        for node in tape.nodes:
            for parent in node.parents:
                if parent.node is not None:
                    assert parent.node in seen
            seen.add(node)

    def test_tape_keeps_one_node_list(self):
        assert GradTape.__slots__ == ("nodes",)
        x = Tensor(np.ones(2), requires_grad=True)
        assert GradTape.trace(x).nodes == []

    def test_diamond_reuse_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = add(x, x)  # same tensor twice
        grads = backward(y, np.ones(1))
        np.testing.assert_array_equal(grads[x], [2.0])

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            h = layer_norm(matmul(x, w), np.ones(4), np.zeros(4))
            grads = backward(_product(_product(h, h), matmul(x, w)), rng.normal(size=(4, 4)))
            return grads[x].copy(), grads[w].copy()

        (gx1, gw1), (gx2, gw2) = run(), run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# add and tensor_mean: finite-difference checks on small extents


class TestStructuralOps:
    def test_add_broadcast(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        y = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        assert_grads_close(lambda: add(x, y), [x, y], RNG.normal(size=(2, 3)))

    def test_add_of_python_float_is_a_constant(self):
        # the float becomes an untracked constant operand: same values, one
        # "add" node, and a gradient for the tracked operand only
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        out = add(x, 0.25)
        np.testing.assert_array_equal(out.data, x.data + 0.25)
        assert out.node.op == "add"
        seed = RNG.normal(size=(2, 3))
        grads = backward(out, seed)
        assert list(grads) == [x]
        np.testing.assert_array_equal(grads[x], seed)

    def test_mean_axes_and_grads(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        assert tensor_mean(x, axis=(0, 2)).shape == (3,)
        assert tensor_mean(x, axis=1).shape == (2, 4)
        assert tensor_mean(x, axis=(0, 1, 2)).shape == ()
        with pytest.raises(TypeError):
            tensor_mean(x)  # the axis is required
        with pytest.raises(ContractError, match="axis"):
            tensor_mean(x, None)
        assert_grads_close(lambda: tensor_mean(x, axis=(0, 2)), [x], RNG.normal(size=(3,)))
        assert_grads_close(lambda: tensor_mean(x, axis=1), [x], RNG.normal(size=(2, 4)))


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

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(b"TNSR\x02"))

    def test_trailing_bytes_in_file_rejected(self, tmp_path):
        buf = io.BytesIO()
        write_tensor(buf, Tensor(np.ones((2, 2))))
        path = tmp_path / "junk.tnsr"
        path.write_bytes(buf.getvalue() + b"garbage")
        with pytest.raises(FormatError, match="after its declared payload"):
            read_tensor(str(path))
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

    def test_file_path_round_trip(self, tmp_path):
        path = str(tmp_path / "x.tnsr")
        values = RNG.normal(size=(4, 4)).astype(np.float32).astype(np.float64)
        write_tensor(path, Tensor(values))
        assert np.array_equal(read_tensor(path).data, values)
