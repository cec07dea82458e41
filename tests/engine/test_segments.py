"""Unit tests for the binary column-segment codec (engine/segments.py):
typed-array round trips, NULL bitmaps, fallback encodings, tid encodings,
registry segments, corruption detection, and the version-2 compressed
encodings (dictionary strings, delta ints) with their format gating."""

import pytest

from repro.engine.segments import (
    MAGIC,
    MAGIC_V2,
    _frame,
    _split_blocks,
    _unframe,
    decode_column,
    decode_registry_segment,
    decode_table_segment,
    encode_column,
    encode_registry_segment,
    encode_table_segment,
    segment_name,
)
from repro.errors import RecoveryError


class TestColumnCodec:
    def test_int_column_packs_typed(self):
        values = [1, -5, 2**62, 0]
        encoding, block = encode_column("INTEGER", values)
        assert encoding == "i8"
        assert len(block) == 8 * len(values)
        assert decode_column(encoding, block, len(values)) == values

    def test_float_column_bit_exact(self):
        values = [0.1, -2.5, 1e-300, float("inf"), float("nan")]
        encoding, block = encode_column("FLOAT", values)
        assert encoding == "f8"
        decoded = decode_column(encoding, block, len(values))
        assert decoded[:4] == values[:4]
        assert decoded[4] != decoded[4]  # NaN round-trips as NaN

    def test_text_column_length_prefixed_utf8(self):
        values = ["", "hello", "mötley crüe", "日本語", "a" * 1000]
        encoding, block = encode_column("TEXT", values)
        assert encoding == "utf8"
        assert decode_column(encoding, block, len(values)) == values

    def test_boolean_column_with_nulls(self):
        values = [True, False, None, True]
        encoding, block = encode_column("BOOLEAN", values)
        assert encoding == "bool"
        assert decode_column(encoding, block, len(values)) == values

    @pytest.mark.parametrize(
        "type_name,values,expected",
        [
            ("INTEGER", [1, None, 3], "i8?"),
            ("FLOAT", [None, 2.5], "f8?"),
            ("TEXT", ["a", None, ""], "utf8?"),
        ],
    )
    def test_null_bitmap_variants(self, type_name, values, expected):
        encoding, block = encode_column(type_name, values)
        assert encoding == expected
        assert decode_column(encoding, block, len(values)) == values

    def test_huge_int_falls_back_to_json(self):
        values = [1, 2**100, -(2**80)]
        encoding, block = encode_column("INTEGER", values)
        assert encoding == "json"
        assert decode_column(encoding, block, len(values)) == values

    def test_lone_surrogate_falls_back_to_json(self):
        values = ["ok", "\ud800"]
        encoding, block = encode_column("TEXT", values)
        assert encoding == "json"
        assert decode_column(encoding, block, len(values)) == values

    def test_empty_column(self):
        for type_name in ("INTEGER", "FLOAT", "TEXT", "BOOLEAN"):
            encoding, block = encode_column(type_name, [])
            assert decode_column(encoding, block, 0) == []

    def test_corrupt_block_rejected(self):
        encoding, block = encode_column("INTEGER", [1, 2, 3])
        with pytest.raises(RecoveryError):
            decode_column(encoding, block[:-1], 3)  # torn
        with pytest.raises(RecoveryError):
            decode_column("nope", block, 3)  # unknown encoding


class TestCompressedEncodings:
    def test_sorted_ints_delta_encode(self):
        values = [100 + 3 * i for i in range(64)]
        encoding, block = encode_column("INTEGER", values)
        assert encoding == "i8d"
        assert len(block) < 8 * len(values)
        assert decode_column(encoding, block, len(values)) == values

    def test_unsorted_ints_stay_plain(self):
        values = [5, 3, 8, 1, 9, 2, 7, 4, 6, 0]
        encoding, _ = encode_column("INTEGER", values)
        assert encoding == "i8"

    def test_short_columns_stay_plain(self):
        # Below the 8-value floor compression cannot pay for itself.
        encoding, _ = encode_column("INTEGER", [1, 2, 3])
        assert encoding == "i8"

    def test_large_sorted_gaps_still_roundtrip(self):
        values = [0, 1, 2**40, 2**40 + 5, 2**62, 2**62, 2**62 + 1, 2**62 + 2]
        encoding, block = encode_column("INTEGER", values)
        assert decode_column(encoding, block, len(values)) == values

    def test_negative_sorted_ints_roundtrip(self):
        values = list(range(-(2**50), -(2**50) + 20)) + [-17, -17, 0, 3, 3, 9]
        values.sort()
        encoding, block = encode_column("INTEGER", values)
        # The -2**50 → -17 jump needs a wide delta, but the encoder only
        # picks i8d when it still wins overall; either way it round-trips.
        assert decode_column(encoding, block, len(values)) == values

    def test_delta_beats_plain_only_when_smaller(self):
        # One enormous gap forces 8-byte deltas; delta coding cannot win
        # and the encoder must keep the plain layout.
        values = sorted([-(2**50), -17, -17, 0, 3, 3, 9, 2**31])
        encoding, _ = encode_column("INTEGER", values)
        assert encoding == "i8"

    def test_low_cardinality_text_dictionary_encodes(self):
        values = (["red", "green", "blue"] * 20)[:50]
        encoding, block = encode_column("TEXT", values)
        assert encoding == "utf8d"
        # Strictly smaller than the plain length-prefixed layout.
        assert len(block) < sum(len(v.encode()) for v in values) + 4 * len(values)
        assert decode_column(encoding, block, len(values)) == values

    def test_high_cardinality_text_stays_plain(self):
        values = [f"row-{i}" for i in range(32)]
        encoding, _ = encode_column("TEXT", values)
        assert encoding == "utf8"

    def test_dictionary_text_with_nulls(self):
        values = (["on", None, "off", "off"] * 10)[:38]
        encoding, block = encode_column("TEXT", values)
        assert encoding == "utf8d?"
        assert decode_column(encoding, block, len(values)) == values

    def test_truncated_compressed_blocks_rejected(self):
        for type_name, values in (
            ("INTEGER", list(range(100, 164))),
            ("TEXT", ["x", "y"] * 16),
        ):
            encoding, block = encode_column(type_name, values)
            with pytest.raises(RecoveryError):
                decode_column(encoding, block[: len(block) // 2], len(values))


def _table_segment(**overrides):
    spec = dict(
        name="t",
        table_kind="standard",
        properties={},
        columns_meta=[("k", "INTEGER"), ("w", "FLOAT"), ("s", "TEXT")],
        tids=[1, 2, 3],
        columns=[[1, 2, 3], [0.5, 1.5, 2.5], ["a", "b", "c"]],
        next_tid=4,
    )
    spec.update(overrides)
    return encode_table_segment(
        spec["name"],
        spec["table_kind"],
        spec["properties"],
        spec["columns_meta"],
        spec["tids"],
        spec["columns"],
        spec["next_tid"],
    )


class TestTableSegment:
    def test_roundtrip(self):
        data = _table_segment(
            table_kind="urelation",
            properties={"payload_arity": 1, "cond_arity": 1},
        )
        decoded = decode_table_segment(data)
        assert decoded["table"] == "t"
        assert decoded["table_kind"] == "urelation"
        assert decoded["properties"] == {"payload_arity": 1, "cond_arity": 1}
        assert decoded["columns"] == [("k", "INTEGER"), ("w", "FLOAT"), ("s", "TEXT")]
        assert decoded["tids"] == [1, 2, 3]
        assert decoded["column_values"] == [[1, 2, 3], [0.5, 1.5, 2.5], ["a", "b", "c"]]
        assert decoded["next_tid"] == 4

    def test_old_index_header_field_ignored(self):
        """Segments written while tables had indexes carry an ``indexes``
        header field; they still load, and the field is dropped."""
        header, body = _unframe(_table_segment())
        header["indexes"] = [["hash", "by_k", [0], True]]
        blocks = _split_blocks(body, header["blocks"])
        decoded = decode_table_segment(_frame(header, blocks))
        assert "indexes" not in decoded
        assert decoded == decode_table_segment(_table_segment())

    def test_dense_tids_encode_as_range(self):
        dense = _table_segment()
        sparse = _table_segment(tids=[1, 5, 9])
        # The dense encoding carries no tid block at all.
        assert len(dense) < len(sparse)
        assert decode_table_segment(sparse)["tids"] == [1, 5, 9]

    def test_empty_table(self):
        data = _table_segment(tids=[], columns=[[], [], []], next_tid=7)
        decoded = decode_table_segment(data)
        assert decoded["tids"] == []
        assert decoded["column_values"] == [[], [], []]
        assert decoded["next_tid"] == 7

    def test_content_addressed_name_is_deterministic(self):
        assert segment_name(_table_segment()) == segment_name(_table_segment())
        assert segment_name(_table_segment()) != segment_name(
            _table_segment(tids=[2, 3, 4])
        )

    def test_bitflip_detected(self):
        data = bytearray(_table_segment())
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(RecoveryError):
            decode_table_segment(bytes(data))

    def test_truncation_detected(self):
        data = _table_segment()
        with pytest.raises(RecoveryError):
            decode_table_segment(data[: len(data) - 5])

    def test_not_a_segment_rejected(self):
        with pytest.raises(RecoveryError):
            decode_table_segment(b"definitely not a segment file")


class TestRegistrySegment:
    def test_roundtrip(self):
        state = {
            "next_id": 4,
            "variables": [
                [1, "x1", [[0, 0.25], [1, 0.75]]],
                [2, "coin", [[0, 0.5], [1, 0.5]]],
                [3, "tri", [[0, 0.2], [1, 0.3], [2, 0.5]]],
            ],
        }
        decoded = decode_registry_segment(encode_registry_segment(state))
        assert decoded == state

    def test_empty_delta(self):
        state = {"next_id": 9, "variables": []}
        assert decode_registry_segment(encode_registry_segment(state)) == state

    def test_unpackable_names_and_values_fall_back_to_json(self):
        """Variable names are built from user text (lone surrogates are
        storable) and domain values are arbitrary ints: the registry
        segment must degrade per block instead of failing the checkpoint
        forever."""
        state = {
            "next_id": 3,
            "variables": [
                [1, "k[\ud800]", [[0, 0.5], [1, 0.5]]],
                [2, "big", [[10**30, 0.25], [1, 0.75]]],
            ],
        }
        assert decode_registry_segment(encode_registry_segment(state)) == state

    def test_kind_mismatch_rejected(self):
        table = _table_segment()
        with pytest.raises(RecoveryError):
            decode_registry_segment(table)
        registry = encode_registry_segment({"next_id": 1, "variables": []})
        with pytest.raises(RecoveryError):
            decode_table_segment(registry)


class TestFormatVersionGating:
    def test_uncompressed_segments_keep_v1_magic(self):
        """Segments whose columns take no v2 encoding must stay v1 so old
        readers (and content-addressed manifests from before compression)
        keep loading them byte-identically."""
        data = _table_segment(
            columns_meta=[("w", "FLOAT")], columns=[[0.5, 1.5, 2.5]]
        )
        assert data.startswith(MAGIC)
        assert decode_table_segment(data)["column_values"] == [[0.5, 1.5, 2.5]]

    def test_compressed_segments_get_v2_magic(self):
        n = 64
        data = _table_segment(
            columns_meta=[("k", "INTEGER")],
            columns=[list(range(n))],
            tids=list(range(1, n + 1)),
            next_tid=n + 1,
        )
        assert data.startswith(MAGIC_V2)
        assert decode_table_segment(data)["column_values"] == [list(range(n))]

    def test_compression_off_reproduces_v1_bytes(self):
        """When no block compresses -- unsorted ints, high-cardinality
        text, sparse tids that delta coding cannot shrink -- the writer
        emits exactly the pre-compression format (stable
        content-addressed names)."""
        n = 64
        ints = [(i * 37) % n for i in range(n)]
        texts = [f"row-{i}" for i in range(n)]
        tids = [1 + i * (2**40) for i in range(n)]
        data = _table_segment(
            columns_meta=[("k", "INTEGER"), ("s", "TEXT")],
            columns=[ints, texts],
            tids=tids,
            next_tid=tids[-1] + 1,
        )
        assert data.startswith(MAGIC)
        decoded = decode_table_segment(data)
        assert decoded["tids"] == tids
        assert decoded["column_values"] == [ints, texts]

    def test_future_format_version_rejected_with_clear_error(self):
        data = _table_segment()
        forged = b"MBSEG009" + data[len(MAGIC) :]
        with pytest.raises(RecoveryError, match="newer"):
            decode_table_segment(forged)
