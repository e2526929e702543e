import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter, zoom

from alignfuse import data
from alignfuse.data import (
    CLS_ID,
    PAD_ID,
    UNK_ID,
    PatchGrid,
    PatientRecord,
    Vocab,
    build_vocab,
    generate_synthetic_dataset,
    load_dataset,
    normalize_volume,
    patchify,
    read_volume,
    save_dataset,
    textualize_record,
    tokenize,
    truncate_narrative,
    write_volume,
)
from alignfuse.errors import DataFormatError, DimensionError


def unpatchify(grid: PatchGrid) -> np.ndarray:
    """The S^3 volume a patch grid was split from: patchify's inverse."""
    s, p = grid.side, grid.patch_size
    g = s // p
    blocks = grid.patches.reshape(g, g, g, p, p, p).transpose(0, 3, 1, 4, 2, 5)
    return blocks.reshape(s, s, s)


def blob_position_classifier(volume: np.ndarray, side: int, n_classes: int) -> int:
    """Trivial reference classifier: nearest class blob center to the peak
    of the smoothed volume. Used to certify that image signal is learnable."""
    vol = normalize_volume(volume, side)
    peak = np.unravel_index(np.argmax(gaussian_filter(vol, sigma=2.0)), vol.shape)
    frac = np.array(peak) / side
    centers = [data._BLOB_PROFILES[data._class_profile_index(c, n_classes)]["center"]
               for c in range(n_classes)]
    return int(np.argmin([np.linalg.norm(frac - np.array(c)) for c in centers]))


class TestNormalizeVolume:
    def test_constant_volume_maps_to_zeros(self):
        out = normalize_volume(np.full((8, 8, 8), 3.0), 16)
        assert np.all(out == 0)

    def test_identity_shape_range(self):
        rng = np.random.Generator(np.random.PCG64(0))
        vol = rng.uniform(0, 1, (16, 16, 16))
        out = normalize_volume(vol, 16)
        assert out.shape == (16, 16, 16)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_ramp_volume_resampled(self):
        vol = np.linspace(0, 1, 10 * 20 * 15).reshape(10, 20, 15)
        out = normalize_volume(vol, 32)
        assert out.shape == (32, 32, 32)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_rejects_non_3d(self):
        with pytest.raises(DimensionError):
            normalize_volume(np.zeros((4, 4)), 8)


def zoom_normalize(raw: np.ndarray, target_side: int) -> np.ndarray:
    """normalize_volume with scipy's zoom as the resample: the oracle."""
    side = max(raw.shape)
    padded = np.zeros((side, side, side))
    padded[: raw.shape[0], : raw.shape[1], : raw.shape[2]] = raw
    if padded.max() == padded.min():
        return np.zeros((target_side,) * 3)
    out = zoom(padded, target_side / side, order=1, grid_mode=True, mode="nearest")
    out = out[:target_side, :target_side, :target_side]
    lo, hi = out.min(), out.max()
    return np.zeros_like(out) if hi == lo else (out - lo) / (hi - lo)


def full_width_normalize(raw: np.ndarray, target_side: int) -> np.ndarray:
    """normalize_volume contracting every output column, those that sample
    the pad alone included: the oracle for its bits."""
    raw = np.asarray(raw, dtype=np.float64)
    side = max(raw.shape)
    lo, hi = raw.min(), raw.max()
    if min(raw.shape) < side:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    if hi == lo:
        return np.zeros((target_side, target_side, target_side))
    m = data.resample_matrix(side, target_side).T
    vol = raw
    for n in raw.shape:
        vol = vol.reshape(n, -1).T @ m[:n]
    vol = vol.reshape(target_side, target_side, target_side)
    lo, hi = vol.min(), vol.max()
    if hi == lo:
        return np.zeros((target_side, target_side, target_side))
    return (vol - lo) / (hi - lo)


class TestResample:
    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 70)] * 3), target=st.integers(1, 40),
           low=st.sampled_from([-1.0, 0.0, 0.5]), seed=st.integers(0, 2 ** 32 - 1))
    @example(shape=(1, 1, 70), target=32, low=0.0, seed=0)
    @example(shape=(3, 70, 20), target=16, low=-1.0, seed=1)
    def test_skipped_pad_outputs_give_the_full_width_bits(self, shape, target, low, seed):
        raw = np.random.Generator(np.random.PCG64(seed)).uniform(low, 1, shape)
        assert normalize_volume(raw, target).tobytes() == \
            full_width_normalize(raw, target).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 70)] * 3),
           target=st.sampled_from([1, 2, 4, 8, 16, 32, 64]), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_zoom(self, shape, target, seed):
        raw = np.random.Generator(np.random.PCG64(seed)).uniform(0, 1, shape)
        out = normalize_volume(raw, target)
        assert out.shape == (target,) * 3
        np.testing.assert_allclose(out, zoom_normalize(raw, target), rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(side=st.integers(1, 70), target=st.integers(1, 70))
    def test_rows_sum_to_one(self, side, target):
        m = data.resample_matrix(side, target)
        assert m.shape == (target, side)
        assert np.all(np.abs(m.sum(axis=1) - 1.0) <= np.spacing(1.0))

    @pytest.mark.parametrize("shape", [(12, 5, 9), (3, 12, 12), (12, 12, 12)])
    def test_target_side_equal_to_padded_side_is_not_resampled(self, shape):
        raw = np.random.Generator(np.random.PCG64(1)).uniform(-2, 3, shape)
        padded = np.zeros((12, 12, 12))
        padded[: shape[0], : shape[1], : shape[2]] = raw
        lo, hi = padded.min(), padded.max()
        assert np.array_equal(normalize_volume(raw, 12), (padded - lo) / (hi - lo))
        assert np.array_equal(data.resample_matrix(12, 12), np.eye(12))

    def test_flat_volume_builds_no_cube(self):
        # zero-padded to a cube, this volume would take 5000³ float64s (1 TB)
        raw = np.random.Generator(np.random.PCG64(2)).uniform(0, 1, (1, 1, 5000))
        tracemalloc.start()
        try:
            out = normalize_volume(raw, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # contracting every output column peaked at 43.6 MB (5000·32²·8 bytes)
        assert peak < 4 << 20
        # every sample point of the two short axes lies in the pad
        assert np.array_equal(out, np.zeros((32, 32, 32)))


class TestPatchify:
    def test_paper_scale_counts(self):
        vol = np.zeros((128, 128, 128))
        grid = patchify(vol, 16)
        assert grid.patches.shape == (512, 4096)

    def test_single_patch(self):
        vol = np.arange(27.0).reshape(3, 3, 3)
        grid = patchify(vol, 3)
        assert grid.patches.shape == (1, 27)
        assert np.array_equal(grid.patches[0], vol.reshape(-1))

    def test_indivisible_patch_size(self):
        with pytest.raises(DimensionError):
            patchify(np.zeros((8, 8, 8)), 3)

    @given(st.sampled_from([(4, 2), (8, 2), (8, 4), (6, 3), (9, 3)]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_identity(self, sp, seed):
        s, p = sp
        rng = np.random.Generator(np.random.PCG64(seed))
        vol = rng.normal(size=(s, s, s))
        assert np.array_equal(unpatchify(patchify(vol, p)), vol)


class TestTextualize:
    def test_single_mmse(self):
        rec = PatientRecord(volume=np.zeros((2, 2, 2)), label=0,
                            lab_results={"mmse": 29})
        assert textualize_record(rec) == "The MMSE score is 29."

    def test_empty_record(self):
        rec = PatientRecord(volume=np.zeros((2, 2, 2)), label=0)
        assert textualize_record(rec) == ""

    def test_field_order_and_surfaces(self):
        rec = PatientRecord(volume=np.zeros((2, 2, 2)), label=1,
                            demographics={"age": 71},
                            lab_results={"mmse": 24, "cdr": 0.5})
        assert textualize_record(rec) == \
            "The age is 71. The MMSE score is 24. The CDR is 0.5."

    def test_monotone_in_field_presence(self):
        base = PatientRecord(volume=np.zeros((2, 2, 2)), label=0,
                             lab_results={"mmse": 20})
        more = PatientRecord(volume=np.zeros((2, 2, 2)), label=0,
                             demographics={"age": 80},
                             lab_results={"mmse": 20})
        assert textualize_record(base) in textualize_record(more)

    def test_narrative_appended_truncated(self):
        words = " ".join(f"w{i}" for i in range(55))
        rec = PatientRecord(volume=np.zeros((2, 2, 2)), label=0, narrative=words)
        out = textualize_record(rec)
        assert out == " ".join(f"w{i}" for i in range(40))


class TestTruncateNarrative:
    @pytest.mark.parametrize("n,kept", [(10, 10), (40, 40), (55, 40)])
    def test_word_counts(self, n, kept):
        text = " ".join(f"w{i}" for i in range(n))
        out = truncate_narrative(text)
        assert len(out.split()) == kept
        assert out.split() == text.split()[:kept]


class TestVocab:
    def test_small_corpus(self):
        v = build_vocab(["a a b"])
        assert len(v) == 6  # 4 reserved + a + b
        assert v.tokens[:4] == ["[PAD]", "[CLS]", "[MASK]", "[UNK]"]
        assert v.tokens[4:] == ["a", "b"]  # freq desc, then lexicographic

    def test_template_keywords_covered(self):
        recs = generate_synthetic_dataset(100, 3, side=8, seed=5)
        corpus = [textualize_record(r) for r in recs]
        v = build_vocab(corpus)
        for kw in ["mmse", "score", "cdr", "age", "memory", "the", "is"]:
            assert kw in v.index

    def test_deterministic_order(self):
        corpus = ["b a c c", "a b"]
        assert build_vocab(corpus).tokens == build_vocab(corpus).tokens


class TestTokenize:
    def setup_method(self):
        self.vocab = build_vocab(["alpha beta gamma delta"])

    def test_empty_text(self):
        seq = tokenize("", self.vocab, l_max=70)
        assert seq.ids[0] == CLS_ID
        assert np.all(seq.ids[1:] == PAD_ID)
        assert seq.length == 1
        assert seq.pad_mask.sum() == 1

    def test_fully_packed(self):
        text = " ".join(["alpha"] * 69)
        seq = tokenize(text, self.vocab, l_max=70)
        assert seq.length == 70
        assert seq.pad_mask.all()

    def test_truncation_at_l_max(self):
        text = " ".join(["alpha"] * 100)
        seq = tokenize(text, self.vocab, l_max=70)
        assert seq.length == 70

    def test_oov_maps_to_unk(self):
        seq = tokenize("alpha zeta beta", self.vocab, l_max=10)
        assert seq.ids[2] == UNK_ID
        assert seq.ids[1] == self.vocab.id_of("alpha")

    @given(st.text(alphabet="abcdefg ", max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_length_bound_invariant(self, text):
        seq = tokenize(text, self.vocab, l_max=16)
        assert seq.ids.shape == (16,)
        assert seq.pad_mask.sum() == seq.length <= 16
        assert np.all(seq.pad_mask[:seq.length])


class TestSyntheticDataset:
    def test_single_record(self):
        recs = generate_synthetic_dataset(1, 3, side=16, seed=0)
        assert len(recs) == 1

    def test_invalid_n(self):
        with pytest.raises(DataFormatError):
            generate_synthetic_dataset(0, 3)

    def test_missing_rate_one(self):
        recs = generate_synthetic_dataset(10, 3, side=8, missing_rate=1.0, seed=1)
        for r in recs:
            assert r.demographics == {} and r.lab_results == {} and r.narrative is None

    def test_determinism(self):
        a = generate_synthetic_dataset(6, 3, side=12, missing_rate=0.3, seed=42)
        b = generate_synthetic_dataset(6, 3, side=12, missing_rate=0.3, seed=42)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.volume, rb.volume)
            assert ra.demographics == rb.demographics
            assert ra.lab_results == rb.lab_results
            assert ra.narrative == rb.narrative

    def test_balanced_labels(self):
        recs = generate_synthetic_dataset(12, 3, side=8, seed=2)
        labels = [r.label for r in recs]
        assert all(labels.count(c) == 4 for c in range(3))

    def test_blob_classifier_recovers_labels(self):
        recs = generate_synthetic_dataset(60, 3, side=24, seed=7)
        hits = sum(blob_position_classifier(r.volume, 24, 3) == r.label for r in recs)
        assert hits / len(recs) > 0.9

    def test_class_conditional_mmse(self):
        recs = generate_synthetic_dataset(30, 3, side=8, seed=3)
        for r in recs:
            mmse = r.lab_results.get("mmse")
            if mmse is None:
                continue
            lo, hi = [(27, 30), (23, 26), (10, 22)][r.label]
            assert lo <= mmse <= hi


class TestDiskFormat:
    def test_volume_roundtrip(self, tmp_path):
        vol = np.random.default_rng(0).normal(size=(5, 7, 6))
        path = tmp_path / "x.vol"
        write_volume(path, vol)
        assert np.array_equal(read_volume(path), vol)
        raw = path.read_bytes()
        assert raw[:4] == b"ALIV"
        assert len(raw) == 20 + vol.size * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.vol"
        path.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(DataFormatError, match="magic"):
            read_volume(path)

    def test_truncated_payload(self, tmp_path):
        vol = np.zeros((4, 4, 4))
        path = tmp_path / "x.vol"
        write_volume(path, vol)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError, match="truncated"):
            read_volume(path)

    def test_header_claims_more_voxels_than_the_file_holds(self, tmp_path):
        path = tmp_path / "x.vol"
        write_volume(path, np.zeros((2, 2, 2)))
        raw = bytearray(path.read_bytes())
        raw[8:20] = struct.pack("<III", 100000, 100000, 100000)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="100000"):
            read_volume(path)

    def test_header_claims_fewer_voxels_than_the_file_holds(self, tmp_path):
        path = tmp_path / "x.vol"
        write_volume(path, np.zeros((30, 31, 32)))
        raw = bytearray(path.read_bytes())
        raw[8:20] = struct.pack("<III", 15, 31, 32)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"x\.vol: trailing bytes.*\(15, 31, 32\)"):
            read_volume(path)

    def test_header_with_a_zero_dimension(self, tmp_path):
        # zero voxels claimed and none follow: the sizes agree, the volume is empty
        path = tmp_path / "x.vol"
        write_volume(path, np.zeros((2, 2, 2)))
        path.write_bytes(path.read_bytes()[:8] + struct.pack("<III", 0, 32, 32))
        with pytest.raises(DataFormatError, match=r"x\.vol: .*empty volume \(0, 32, 32\)"):
            read_volume(path)

    def test_bytes_after_the_voxels(self, tmp_path):
        path = tmp_path / "x.vol"
        write_volume(path, np.zeros((30, 31, 32)))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DataFormatError, match=r"x\.vol: trailing bytes"):
            read_volume(path)

    def test_dataset_roundtrip(self, tmp_path):
        recs = generate_synthetic_dataset(5, 3, side=8, missing_rate=0.4, seed=9)
        manifest = save_dataset(recs, tmp_path / "ds")
        loaded = load_dataset(manifest)
        assert len(loaded) == 5
        for a, b in zip(recs, loaded):
            assert np.array_equal(a.volume, b.volume)
            assert a.label == b.label
            assert a.fields() == b.fields()

    def test_malformed_manifest_line_reports_number(self, tmp_path):
        recs = generate_synthetic_dataset(3, 3, side=8, seed=1)
        manifest = save_dataset(recs, tmp_path / "ds")
        lines = manifest.read_text().splitlines()
        lines[1] = "{not json"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(manifest)


class TestCorruptVolumeFuzz:
    @pytest.fixture(scope="class")
    def vol_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "x.vol"
        write_volume(path, np.random.default_rng(0).normal(size=(3, 4, 5)))
        return path

    # ("byte", i, value) overwrites a byte, ("cut", n) truncates and ("u32",
    # k, value) overwrites the version (k = 0) or a dimension; positions wrap
    @settings(max_examples=200, deadline=None)
    @given(edit=st.one_of(
        st.tuples(st.just("byte"), st.integers(0, 2**10), st.integers(0, 255)),
        st.tuples(st.just("cut"), st.integers(0, 2**10)),
        st.tuples(st.just("u32"), st.integers(0, 3),
                  st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)))))
    @example(edit=("u32", 1, 100_000))  # a header that claims more voxels than memory
    @example(edit=("u32", 3, 0xFFFFFFFF))
    def test_reads_or_raises_data_format_error(self, vol_path, edit):
        raw = vol_path.read_bytes()
        kind, *args = edit
        if kind == "byte":
            i = args[0] % len(raw)
            raw = raw[:i] + bytes([args[1]]) + raw[i + 1:]
        elif kind == "cut":
            raw = raw[:args[0] % len(raw)]
        else:
            at = 4 + 4 * args[0]
            raw = raw[:at] + struct.pack("<I", args[1]) + raw[at + 4:]
        bad = vol_path.with_name("bad.vol")
        bad.write_bytes(raw)
        try:
            read_volume(bad)
        except DataFormatError:
            pass
