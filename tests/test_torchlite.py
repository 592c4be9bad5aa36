"""Unit + gradient-check tests for the torchlite autograd engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.torchlite import (
    AdamOptimizer,
    Linear,
    Module,
    ScriptModule,
    SGDOptimizer,
    Tensor,
    accuracy,
    concat,
    cross_entropy,
    log_softmax,
    segment_max,
    segment_mean,
)
from repro.torchlite.nn import LSTMCell
from tests.conftest import digest


class MLP(Module):
    """Linear -> ReLU -> Linear."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.first = Linear(in_dim, hidden, rng=rng)
        self.second = Linear(hidden, out_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.second(self.first(x).relu())


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error."""
    diff = pred + Tensor(-target)
    return (diff * diff).sum() * (1.0 / diff.data.size)


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f wrt array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        hi = f()
        x[idx] = old - eps
        lo = f()
        x[idx] = old
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def check_grad(build, x_data, rtol=1e-4, atol=1e-6):
    """Assert autograd gradient of sum(build(x)) matches numeric grad."""
    x = Tensor(x_data.copy(), requires_grad=True)
    out = build(x).sum()
    out.backward()

    holder = x.data

    def f():
        return build(Tensor(holder)).sum().item()

    num = numeric_grad(f, holder)
    np.testing.assert_allclose(x.grad, num, rtol=rtol, atol=atol)


class TestAutogradBasics:
    def test_add_mul_chain(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (1.0 + 2.0 * (a * b + a)).sum().backward()  # radd, rmul
        np.testing.assert_allclose(a.grad, [8.0, 10.0])
        np.testing.assert_allclose(b.grad, [2.0, 4.0])

    def test_matmul_grad(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((3, 2))
        check_grad(lambda x: x @ Tensor(W), rng.standard_normal((4, 3)))

    def test_same_tensor_used_twice(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_broadcast_bias_grad(self):
        b = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((5, 3)))
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [5.0, 5.0, 5.0])

    def test_getitem_scatter_grad(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [[2, 2], [0, 0], [1, 1]])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    @settings(deadline=None, max_examples=15)
    @given(st.integers(1, 4), st.integers(1, 4))
    def test_activations_match_numeric(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        x = rng.standard_normal((n, m)) * 0.9 + 0.1
        check_grad(lambda t: t.sigmoid(), x.copy())
        check_grad(lambda t: t.tanh(), x.copy())


class TestFunctional:
    def test_concat_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b])
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_segment_mean_values(self):
        x = Tensor(np.array([[1.0], [3.0], [10.0]]))
        seg = np.array([0, 0, 1])
        out = segment_mean(x, seg, 3)
        np.testing.assert_allclose(out.data, [[2.0], [10.0], [0.0]])

    def test_segment_mean_grad(self):
        rng = np.random.default_rng(3)
        seg = np.array([0, 1, 0, 1, 1])
        check_grad(lambda t: segment_mean(t, seg, 2),
                   rng.standard_normal((5, 3)))

    def test_segment_max_values(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [-1.0, 0.0]]))
        out = segment_max(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0, 5.0], [-1.0, 0.0]])

    @settings(deadline=None, max_examples=80)
    @given(st.lists(st.integers(0, 4), max_size=30), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1))
    def test_segment_ops_bitwise_equal_the_ufunc_at_forms(self, seg, cols,
                                                          seed):
        rng = np.random.default_rng(seed)
        seg = np.asarray(seg, dtype=np.int64)
        # Ties, both zeros and infinities: where a max could differ by
        # the order or the sign it keeps.
        x = rng.choice([-np.inf, -1.5, -0.0, 0.0, 0.25, 1e-3, 7.0, np.inf],
                       size=(len(seg), cols))
        x += rng.integers(0, 2, size=x.shape) * rng.standard_normal(x.shape)
        sums = np.zeros((6, cols))
        counts = np.bincount(seg, minlength=6).astype(np.float64)
        with np.errstate(invalid="ignore"):  # inf - inf is a fair input
            np.add.at(sums, seg, x)
            mean = segment_mean(Tensor(x), seg, 6).data
        assert mean.tobytes() == (
            sums / np.maximum(counts, 1.0)[:, None]).tobytes()
        maxima = np.full((6, cols), -np.inf)
        np.maximum.at(maxima, seg, x)
        maxima[counts == 0] = 0.0
        assert segment_max(Tensor(x), seg, 6).data.tobytes() == (
            maxima.tobytes())

    @pytest.mark.parametrize("idx", [
        np.array([0, 0, 2, 0]),                       # repeated rows
        np.array([-1, 1]),
        (np.array([0, 2, 2]), np.array([1, 0, 0])),   # cross_entropy's pick
        (slice(None), slice(1, 3)),                   # LSTM gate slices
        slice(0, 2),
        1,
        np.array([True, False, True]),
        np.array([[0, 1], [1, 0]]),
        (2, 3),
    ], ids=repr)
    @pytest.mark.parametrize("transposed", [False, True])
    def test_getitem_grad_equals_add_at(self, idx, transposed):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((4, 3)).T if transposed else (
            rng.standard_normal((3, 4)))
        x = Tensor(data, requires_grad=True)
        picked = x[idx]
        g = rng.standard_normal(picked.shape)
        (picked * Tensor(g)).sum().backward()
        expect = np.zeros((3, 4))
        np.add.at(expect, idx, g)
        assert x.grad.tobytes() == expect.tobytes()

    def test_log_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        out = log_softmax(Tensor(rng.standard_normal((6, 4))))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0)

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]),
                        requires_grad=True)
        labels = np.array([0, 1])
        loss = cross_entropy(logits, labels)
        expect = -np.log(np.exp(2) / (np.exp(2) + 1))
        assert loss.item() == pytest.approx(expect)

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(5)
        labels = np.array([0, 2, 1])
        check_grad(lambda t: cross_entropy(t, labels),
                   rng.standard_normal((3, 3)))

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


class TestModules:
    def test_linear_shapes_and_params(self):
        layer = Linear(4, 3)
        out = layer(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 3)
        assert len(layer.parameters()) == 2

    def test_default_init_is_pinned(self):
        # A layer built without an ``rng`` draws from a fixed seed, so a
        # default-constructed model repeats across processes.  Computed
        # at commit ``ad40a19``.
        cell = LSTMCell(2, 3)
        assert digest([Linear(4, 3).weight.data, cell.w_ih.data,
                       cell.w_hh.data]) == "118ea3bee3164675"

    def test_state_dict_roundtrip(self):
        m1 = MLP(3, 3, 2, rng=np.random.default_rng(1))
        m2 = MLP(3, 3, 2, rng=np.random.default_rng(2))
        assert list(m1.state_dict()) == [
            "first.weight", "first.bias", "second.weight", "second.bias"]
        m2.load_state_dict(m1.state_dict())
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(m1(x).data, m2(x).data)

    def test_training_loop_reduces_loss(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((64, 5))
        true_w = rng.standard_normal((5, 3))
        labels = (x @ true_w).argmax(axis=1)
        model = MLP(5, 16, 3, rng=rng)
        opt = AdamOptimizer(model.parameters(), lr=0.05)
        first = None
        for _ in range(60):
            opt.zero_grad()
            loss = cross_entropy(model(Tensor(x)), labels)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.3
        assert accuracy(model(Tensor(x)).data, labels) > 0.9

    def test_sgd_with_momentum_trains(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((32, 4))
        y = x.sum(axis=1, keepdims=True)
        model = Linear(4, 1, rng=rng)
        opt = SGDOptimizer(model.parameters(), lr=0.05, momentum=0.9)
        for _ in range(100):
            opt.zero_grad()
            loss = mse(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        assert loss.item() < 1e-3


class TestScriptModule:
    def test_trace_and_instantiate_identical(self):
        blob = ScriptModule.trace(_make_mlp, in_dim=4, out_dim=2)
        m1 = blob.instantiate()
        m2 = blob.instantiate()
        x = Tensor(np.ones((3, 4)))
        np.testing.assert_allclose(m1(x).data, m2(x).data)

    def test_bytes_roundtrip(self):
        blob = ScriptModule.trace(_make_mlp, in_dim=4, out_dim=2)
        back = ScriptModule.from_bytes(blob.to_bytes())
        x = Tensor(np.ones((2, 4)))
        np.testing.assert_allclose(
            back.instantiate()(x).data, blob.instantiate()(x).data
        )


def _make_mlp(in_dim: int, out_dim: int) -> MLP:
    return MLP(in_dim, 8, out_dim, rng=np.random.default_rng(42))


class TestLSTMCell:
    def test_step_shapes(self):
        from repro.torchlite import LSTMCell

        cell = LSTMCell(4, 6, rng=np.random.default_rng(0))
        h = Tensor(np.zeros((3, 6)))
        c = Tensor(np.zeros((3, 6)))
        h2, c2 = cell(Tensor(np.ones((3, 4))), h, c)
        assert h2.shape == (3, 6)
        assert c2.shape == (3, 6)
        assert (np.abs(h2.data) < 1).all()  # tanh-bounded

    def test_gradients_reach_all_weights(self):
        from repro.torchlite import LSTMCell

        cell = LSTMCell(3, 4, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).standard_normal((10, 3)))
        out = cell.run_sequence(x, batch=2, steps=5)
        out.sum().backward()
        for _name, p in cell.named_parameters():
            assert p.grad is not None
            assert np.abs(p.grad).sum() > 0

    def test_sequence_order_matters(self):
        from repro.torchlite import LSTMCell

        cell = LSTMCell(2, 3, rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        seq = rng.standard_normal((4, 2))
        fwd = cell.run_sequence(Tensor(seq), batch=1, steps=4)
        rev = cell.run_sequence(Tensor(seq[::-1].copy()), batch=1, steps=4)
        assert not np.allclose(fwd.data, rev.data)

    def test_trains_to_remember_last_input(self):
        from repro.torchlite import LSTMCell

        rng = np.random.default_rng(5)
        cell = LSTMCell(1, 8, rng=rng)
        head = Linear(8, 1, rng=rng)
        opt = AdamOptimizer(cell.parameters() + head.parameters(), lr=0.02)
        losses = []
        for step in range(80):
            seq = rng.standard_normal((20, 1))  # 4 sequences of length 5
            target = seq.reshape(4, 5)[:, -1:]  # last element
            opt.zero_grad()
            h = cell.run_sequence(Tensor(seq), batch=4, steps=5)
            loss = mse(head(h), target)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) * 0.5


class TestSegmentProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30),
           st.integers(1, 3))
    def test_segment_mean_matches_reference(self, segs, cols):
        segs = np.asarray(segs)
        num = int(segs.max()) + 1
        rng = np.random.default_rng(1)
        x = rng.standard_normal((len(segs), cols))
        got = segment_mean(Tensor(x), segs, num).data
        for s in range(num):
            rows = x[segs == s]
            expect = rows.mean(axis=0) if len(rows) else np.zeros(cols)
            np.testing.assert_allclose(got[s], expect, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    def test_segment_max_matches_reference(self, segs):
        segs = np.asarray(segs)
        num = int(segs.max()) + 1
        rng = np.random.default_rng(2)
        x = rng.standard_normal((len(segs), 2))
        got = segment_max(Tensor(x), segs, num).data
        for s in range(num):
            rows = x[segs == s]
            if len(rows):
                np.testing.assert_allclose(got[s], rows.max(axis=0))
