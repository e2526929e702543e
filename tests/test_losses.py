import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alignfuse.data import TokenSequence
from alignfuse.errors import ContractError, DegenerateInputError, DimensionError, LabelError
from alignfuse.losses import (
    LossWeights,
    classification_loss,
    image_recon_loss,
    itc_loss,
    text_recon_loss,
    total_loss,
)
from alignfuse.tensor import RngStream, Tensor, cross_entropy, finite_diff_check


def brute_force_itc(zi: np.ndarray, zt: np.ndarray, tau: float) -> float:
    """Scalar, per-element reference evaluation of the symmetric contrastive
    objective over cosine similarities, mean over pairs per direction."""
    b = zi.shape[0]

    def cos(u, v):
        return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

    total = 0.0
    for i in range(b):
        num = math.exp(cos(zi[i], zt[i]) / tau)
        den = sum(math.exp(cos(zi[i], zt[k]) / tau) for k in range(b))
        total += -math.log(num / den) / b
        den = sum(math.exp(cos(zi[k], zt[i]) / tau) for k in range(b))
        total += -math.log(num / den) / b
    return total


class TestItcLoss:
    def test_b1_is_exactly_zero(self):
        z = Tensor([[1.0, 2.0, 3.0]])
        assert itc_loss(z, z, 0.07).item() == 0.0

    def test_b2_uniform_is_2ln2(self):
        z = Tensor([[1.0, 0.0], [1.0, 0.0]])
        assert abs(itc_loss(z, z, 0.07).item() - 2.0 * math.log(2.0)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        zi = rng.normal(size=(3, 6))
        zt = rng.normal(size=(3, 6))
        got = itc_loss(Tensor(zi), Tensor(zt), 0.07).item()
        assert abs(got - brute_force_itc(zi, zt, 0.07)) < 1e-10

    def test_nonnegative_and_exchange_symmetric(self):
        rng = np.random.Generator(np.random.PCG64(3))
        zi, zt = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=(4, 5)))
        a = itc_loss(zi, zt, 0.1).item()
        b = itc_loss(zt, zi, 0.1).item()
        assert a >= 0.0
        assert abs(a - b) < 1e-12

    def test_invariant_under_row_rescaling(self):
        rng = np.random.Generator(np.random.PCG64(4))
        zi = rng.normal(size=(4, 5))
        zt = rng.normal(size=(4, 5))
        scales = rng.uniform(0.1, 10.0, size=(4, 1))
        a = itc_loss(Tensor(zi), Tensor(zt), 0.2).item()
        b = itc_loss(Tensor(zi * scales), Tensor(zt), 0.2).item()
        assert abs(a - b) < 1e-10

    def test_invariant_under_joint_permutation(self):
        rng = np.random.Generator(np.random.PCG64(5))
        zi = rng.normal(size=(5, 4))
        zt = rng.normal(size=(5, 4))
        perm = rng.permutation(5)
        a = itc_loss(Tensor(zi), Tensor(zt), 0.07).item()
        b = itc_loss(Tensor(zi[perm]), Tensor(zt[perm]), 0.07).item()
        assert abs(a - b) < 1e-10

    def test_zero_norm_row_rejected(self):
        zi = Tensor([[0.0, 0.0], [1.0, 0.0]])
        zt = Tensor([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            itc_loss(zi, zt, 0.07)

    def test_gradient(self):
        rng = np.random.Generator(np.random.PCG64(6))
        zi = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        zt = Tensor(rng.normal(size=(3, 4)))
        assert finite_diff_check(lambda t: itc_loss(t, zt, 0.07), zi) < 1e-4

    def test_temperature_tensor_broadcasts_like_a_float(self):
        # the model passes tau as the (1,) tensor exp(log_tau)
        rng = np.random.Generator(np.random.PCG64(7))
        zi, zt = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
        tau = Tensor([0.07], requires_grad=True)
        loss = itc_loss(zi, zt, tau)
        assert loss.shape == ()
        assert loss.item() == itc_loss(zi, zt, 0.07).item()
        loss.backward()
        assert tau.grad.shape == (1,)
        assert finite_diff_check(lambda t: itc_loss(zi, zt, t), tau) < 1e-4


def positions(n, idx):
    """(n,) bool mask, True at `idx`."""
    return np.isin(np.arange(n), idx)


class TestImageReconLoss:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).uniform(0, 1, (6, 8))
        assert image_recon_loss(x, Tensor(x), positions(6, [0, 2])).item() == 0.0

    def test_empty_mask_convention(self):
        x = np.ones((4, 8))
        assert image_recon_loss(x, Tensor(np.zeros((4, 8))),
                                positions(4, [])).item() == 0.0

    def test_constant_error(self):
        x = np.zeros((3, 4))
        recon = Tensor(np.full((3, 4), 0.5))
        assert abs(image_recon_loss(x, recon, positions(3, [1])).item() - 0.25) < 1e-15

    def test_only_masked_patches_count(self):
        x = np.zeros((3, 4))
        recon_data = np.zeros((3, 4))
        recon_data[0] = 9.0  # unmasked row must not contribute
        assert image_recon_loss(x, Tensor(recon_data), positions(3, [2])).item() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            image_recon_loss(np.zeros((3, 4)), Tensor(np.zeros((4, 3))),
                             positions(4, [0]))

    def test_mask_of_another_shape(self):
        # a (P,) mask for a batch of two broadcast to twice the per-record mean
        x = np.zeros((2, 3, 4))
        recon = Tensor(np.full((2, 3, 4), 0.5))
        for masked in (positions(3, [1]), np.ones((1, 3), dtype=bool),
                       np.ones((2, 3, 4), dtype=bool)):
            with pytest.raises(DimensionError, match="mask"):
                image_recon_loss(x, recon, masked)

    def test_gradient(self):
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.uniform(0, 1, (4, 6))
        r = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        assert finite_diff_check(
            lambda t: image_recon_loss(x, t, positions(4, [1, 3])), r) < 1e-4

    def test_batch_is_mean_of_per_record_means(self):
        rng = np.random.Generator(np.random.PCG64(2))
        x = rng.uniform(0, 1, (3, 5, 4))
        r = rng.normal(size=(3, 5, 4))
        masked = np.array([positions(5, [0, 1, 4]), positions(5, [2]),
                           positions(5, [])])
        got = image_recon_loss(x, Tensor(r), masked).item()
        expected = sum(image_recon_loss(x[j], Tensor(r[j]), masked[j]).item()
                       for j in range(3)) / 3
        assert abs(got - expected) < 1e-14


def make_tokens(ids, length):
    return TokenSequence(ids=np.asarray(ids, dtype=np.int64), length=length)


def text_loss(toks, logits, idx):
    return text_recon_loss(toks.ids, np.arange(len(toks.ids)) < toks.length, logits,
                           positions(len(toks.ids), idx))


class TestTextReconLoss:
    def test_concentrated_logits_near_zero(self):
        toks = make_tokens([1, 5, 6, 0], 3)
        logits = np.zeros((4, 8))
        logits[1, 5] = 20.0
        logits[2, 6] = 20.0
        loss = text_loss(toks, Tensor(logits), [1, 2]).item()
        assert loss < 1e-6

    def test_uniform_logits_is_ln_vocab(self):
        toks = make_tokens([1, 3, 2, 0], 3)
        logits = Tensor(np.zeros((4, 4)))
        loss = text_loss(toks, logits, [1, 2]).item()
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_empty_mask_convention(self):
        toks = make_tokens([1, 5, 0, 0], 2)
        assert text_loss(toks, Tensor(np.zeros((4, 8))), []).item() == 0.0

    def test_hand_set_logits_match_oracle(self):
        toks = make_tokens([1, 5, 6, 0], 3)
        logits = np.zeros((4, 8))
        logits[1] = [0.3, -1.0, 0.2, 0.0, 1.1, 2.0, 0.0, -0.5]
        logits[2] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0]

        def ce(row, target):
            p = np.exp(row - row.max())
            p /= p.sum()
            return -math.log(p[target])

        expected = (ce(logits[1], 5) + ce(logits[2], 6)) / 2.0
        got = text_loss(toks, Tensor(logits), [1, 2]).item()
        assert abs(got - expected) < 1e-12

    def test_gradient(self):
        toks = make_tokens([1, 5, 6, 7], 4)
        logits = Tensor(np.random.default_rng(2).normal(size=(4, 8)),
                        requires_grad=True)
        assert finite_diff_check(
            lambda t: text_loss(toks, t, [1, 3]), logits) < 1e-4

    def test_cls_position_is_a_contract_error(self):
        toks = make_tokens([1, 5, 6, 0], 3)
        with pytest.raises(ContractError):
            text_loss(toks, Tensor(np.zeros((4, 8))), [0, 1])

    def test_mask_of_another_shape(self):
        ids = np.array([[1, 5, 6, 0], [1, 4, 0, 0]])
        logits = Tensor(np.zeros((2, 4, 8)))
        for masked in (positions(4, [1]), np.zeros((1, 4), dtype=bool), positions(3, [1])):
            with pytest.raises(DimensionError, match="mask"):
                text_recon_loss(ids, ids != 0, logits, masked)

    def test_pad_position_is_a_contract_error(self):
        toks = make_tokens([1, 5, 6, 0], 3)
        with pytest.raises(ContractError):
            text_loss(toks, Tensor(np.zeros((4, 8))), [1, 3])

    def test_batch_is_mean_of_per_record_means(self):
        rng = np.random.Generator(np.random.PCG64(3))
        ids = np.array([[1, 5, 6, 7], [1, 4, 0, 0], [1, 0, 0, 0]])
        pad = ids != 0
        logits = rng.normal(size=(3, 4, 8))
        masked = np.array([positions(4, [1, 2, 3]), positions(4, [1]),
                           positions(4, [])])
        got = text_recon_loss(ids, pad, Tensor(logits), masked).item()
        expected = sum(text_recon_loss(ids[j], pad[j], Tensor(logits[j]),
                                       masked[j]).item() for j in range(3)) / 3
        assert abs(got - expected) < 1e-14


def gathered_text_loss(ids, logits: Tensor, masked) -> Tensor:
    """Oracle: cross-entropy over the gathered masked rows only, each
    weighing 1 / (its record's count * records)."""
    n_records = masked.size // masked.shape[-1]
    where = np.nonzero(masked)
    return cross_entropy(logits[where], ids[where],
                         1.0 / (masked.sum(axis=-1)[where[:-1]] * n_records))


@st.composite
def text_batches(draw):
    """(ids, pad_mask, logits, masked) with ragged lengths; any subset of
    real non-[CLS] positions is masked, none at all included."""
    b, length, vocab = draw(st.integers(1, 4)), draw(st.integers(2, 8)), draw(st.integers(2, 12))
    lengths = np.array(draw(st.lists(st.integers(1, length), min_size=b, max_size=b)))
    pad = np.arange(length) < lengths[:, None]
    bits = np.array(draw(st.lists(st.booleans(), min_size=b * length, max_size=b * length)))
    masked = pad & bits.reshape(b, length) & (np.arange(length) > 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.where(pad, rng.integers(0, vocab, (b, length)), 0)
    return ids, pad, rng.normal(scale=3.0, size=(b, length, vocab)), masked


RAGGED_IDS = np.array([[1, 5, 6, 0], [1, 4, 0, 0]])
RAGGED_LOGITS = np.random.default_rng(4).normal(size=(2, 4, 8))


class TestTextLossMatchesGatheredRows:
    @settings(max_examples=200, deadline=None)
    @given(text_batches())
    @example((RAGGED_IDS, RAGGED_IDS != 0, RAGGED_LOGITS, np.zeros((2, 4), dtype=bool)))
    @example((RAGGED_IDS, RAGGED_IDS != 0, RAGGED_LOGITS,
              np.array([[False, True, True, False], [False] * 4])))
    def test_value_and_gradient(self, case):
        ids, pad, logits, masked = case
        got, want = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
        loss = text_recon_loss(ids, pad, got, masked)
        oracle = gathered_text_loss(ids, want, masked)
        assert abs(loss.item() - oracle.item()) <= 1e-14 * abs(oracle.item())
        loss.backward()
        oracle.backward()
        assert np.array_equal(got.grad, want.grad)


def is_positive_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) == 1.0


class TestEmptyMaskGivesPositiveZero:
    def test_image(self):
        x = np.ones((2, 4, 8))
        recon = Tensor(np.zeros((2, 4, 8)), requires_grad=True)
        loss = image_recon_loss(x, recon, np.zeros((2, 4), dtype=bool))
        assert is_positive_zero(loss.item())
        loss.backward()
        assert not recon.grad.any()

    @pytest.mark.parametrize("true_logit", [0.0, 1000.0])
    def test_text(self, true_logit):
        # a true logit 1000 above the rest makes every position's NLL exactly
        # 0: the weighted sum of 0 * 0 terms must still read +0.0
        logits = RAGGED_LOGITS.copy()
        np.put_along_axis(logits, RAGGED_IDS[..., None], true_logit, axis=-1)
        t = Tensor(logits, requires_grad=True)
        loss = text_recon_loss(RAGGED_IDS, RAGGED_IDS != 0, t, np.zeros((2, 4), dtype=bool))
        assert is_positive_zero(loss.item())
        loss.backward()
        assert not t.grad.any()


class TestClassificationLoss:
    def test_uniform_logits(self):
        loss = classification_loss(Tensor([0.0, 0.0, 0.0]), 1).item()
        assert abs(loss - math.log(3.0)) < 1e-12

    def test_confident_correct(self):
        assert classification_loss(Tensor([20.0, 0.0, 0.0]), 0).item() < 1e-6

    def test_reference_value(self):
        # oracle: -log(e^2 / (e^1 + e^2 + e^0))
        expected = -math.log(math.exp(2) / (math.exp(1) + math.exp(2) + 1.0))
        got = classification_loss(Tensor([1.0, 2.0, 0.0]), 1).item()
        assert abs(got - expected) < 1e-12

    def test_invalid_label(self):
        with pytest.raises(LabelError):
            classification_loss(Tensor([0.0, 0.0]), 2)

    def test_gradient(self):
        logits = Tensor([0.4, -1.2, 0.8], requires_grad=True)
        assert finite_diff_check(lambda t: classification_loss(t, 2), logits) < 1e-4

    def test_batch_is_mean_over_records(self):
        logits = np.array([[1.0, 2.0, 0.0], [0.5, -0.5, 3.0]])
        got = classification_loss(Tensor(logits), [1, 2]).item()
        expected = (classification_loss(Tensor(logits[0]), 1).item()
                    + classification_loss(Tensor(logits[1]), 2).item()) / 2
        assert abs(got - expected) < 1e-15

    def test_invalid_label_in_batch(self):
        with pytest.raises(LabelError):
            classification_loss(Tensor(np.zeros((2, 3))), [0, 3])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_outside_the_classes_is_named(self, bad):
        with pytest.raises(LabelError, match=f"label {bad} "):
            classification_loss(Tensor(np.zeros((2, 3))), [0, bad])

    @pytest.mark.parametrize("labels, named", [([0, 0.5], "0.5"), ([1.0, 2], "1.0"),
                                               ([True, False], "True")])
    def test_non_integer_label_is_named(self, labels, named):
        # a float or bool label would be truncated or cast to a class
        with pytest.raises(LabelError, match=f"label {named} of dtype "):
            classification_loss(Tensor(np.zeros((2, 3))), labels)


class TestTotalLoss:
    def _parts(self, a, b, c, d, grad=False):
        return [Tensor(np.array(v), requires_grad=grad) for v in (a, b, c, d)]

    def test_unit_weights_sum(self):
        parts = self._parts(0.5, 0.25, 0.125, 1.0)
        out = total_loss(*parts)
        assert abs(out.total.item() - 1.875) < 1e-15

    def test_weighted_combination_exact(self):
        parts = self._parts(0.3, 0.7, 0.2, 1.1)
        w = LossWeights(contrastive=2.0, reconstruction=0.5, classification=3.0)
        out = total_loss(*parts, weights=w)
        assert out.total.item() == 2.0 * 0.3 + 0.5 * (0.7 + 0.2) + 3.0 * 1.1

    def test_zero_contrastive_weight_kills_gradient(self):
        cl = Tensor(np.array(1.5), requires_grad=True)
        parts = [cl] + self._parts(0.0, 0.1, 0.2, 0.3)[1:]
        out = total_loss(*parts, weights=LossWeights(contrastive=0.0))
        out.total.backward()
        assert cl.grad is None or np.all(cl.grad == 0.0)

    def test_scalars_breakdown(self):
        out = total_loss(*self._parts(1.0, 2.0, 3.0, 4.0))
        s = out.scalars()
        assert s["l_total"] == 10.0 and s["l_cl"] == 1.0 and s["l_cls"] == 4.0
