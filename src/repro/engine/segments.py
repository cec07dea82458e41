"""Binary column segments: the on-disk unit of incremental checkpoints.

A *segment* holds one table (or one slice of the variable registry) in
the same columnar layout the batch engine executes over: one typed,
packed array per column instead of a JSON list of row lists.  Segments
are content-addressed (named by the SHA-256 of their payload), so an
incremental checkpoint re-links an unchanged table by writing nothing at
all, and two tables with identical contents share one file.

File layout::

    magic "MBSEG001"  (8 bytes)
    payload length    (u32, big-endian)
    crc32(payload)    (u32, big-endian)
    payload:
        header length (u32, big-endian)
        header JSON   (schema, encodings, block lengths, metadata)
        blocks        (concatenated encoded columns)

Column encodings, chosen per column by declared SQL type and a NULL scan:

    ``i8``    all-int column, values fit in int64: packed ``<q`` array
    ``f8``    all-float column: packed ``<d`` array (bit-exact round trip)
    ``utf8``  all-string column: packed u32 lengths + concatenated UTF-8
    ``i8?`` / ``f8?`` / ``utf8?``
              as above plus a leading NULL bitmap (set bit = NULL, the
              packed value is a zero placeholder)
    ``bool``  one byte per value: 0 false, 1 true, 2 NULL
    ``json``  anything else (e.g. ints beyond int64): JSON list payload

Compressed encodings (format version 2), used only when they shrink the
block:

    ``utf8d``  dictionary-coded strings for low-cardinality columns:
               distinct values as a ``utf8`` sub-block, then one narrow
               (u8/u16/u32) index per row
    ``i8d``    delta-coded non-decreasing int64 runs (sorted columns,
               tuple-id sequences): first value as ``<q``, then narrow
               non-negative deltas
    ``utf8d?`` dictionary coding behind the usual NULL bitmap

A segment carrying any compressed block is framed with the ``MBSEG002``
magic; everything else keeps ``MBSEG001``, so checkpoints that do not
use the new encodings remain readable by older readers and old segments
always load (the reader accepts both magics).

Decoding verifies the CRC before trusting anything, so a torn or
bit-rotten segment surfaces as :class:`~repro.errors.RecoveryError` and
recovery can fall back to the previous checkpoint epoch.  The codec is
deliberately engine-free (stdlib only); :mod:`repro.engine.durability`
supplies the glue to tables and the registry, and
:mod:`repro.engine.parallel` reuses the framing for shared-memory
handoff to confidence workers.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Any, Dict, List, Sequence, Tuple

from repro import faults as _faults
from repro.errors import RecoveryError

MAGIC = b"MBSEG001"
MAGIC_V2 = b"MBSEG002"
SEGMENT_SUFFIX = ".seg"

#: Encodings introduced by format version 2; their presence anywhere in a
#: segment forces the v2 magic.
V2_ENCODINGS = frozenset({"utf8d", "utf8d?", "i8d"})

_U32 = struct.Struct(">I")
_HEAD = struct.Struct(">II")  # (payload length, crc32 of payload)


# -- column block codecs -------------------------------------------------------


def _pack_i8(values: Sequence[Any]) -> bytes:
    return struct.pack(f"<{len(values)}q", *values)


def _pack_f8(values: Sequence[Any]) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _pack_utf8(values: Sequence[Any]) -> bytes:
    encoded = [v.encode("utf-8") for v in values]
    lengths = struct.pack(f"<{len(encoded)}I", *(len(b) for b in encoded))
    return lengths + b"".join(encoded)


def _pack_bitmap(values: Sequence[Any]) -> bytes:
    bits = bytearray((len(values) + 7) // 8)
    for i, value in enumerate(values):
        if value is None:
            bits[i >> 3] |= 1 << (i & 7)
    return bytes(bits)


def _unpack_bitmap(data: bytes, count: int) -> List[bool]:
    return [bool(data[i >> 3] & (1 << (i & 7))) for i in range(count)]


#: Narrow unsigned widths for dictionary indexes and deltas, smallest first.
_NARROW = ((1, "B", 0xFF), (2, "H", 0xFFFF), (4, "I", 0xFFFFFFFF))


def _pack_narrow(values: Sequence[int]) -> bytes:
    """Width byte + the values packed at the narrowest unsigned width that
    fits their maximum (they are known non-negative)."""
    top = max(values) if values else 0
    for width, code, limit in _NARROW:
        if top <= limit:
            return bytes([width]) + struct.pack(f"<{len(values)}{code}", *values)
    return bytes([8]) + struct.pack(f"<{len(values)}Q", *values)


def _unpack_narrow(data: bytes, count: int) -> Tuple[List[int], int]:
    """Inverse of :func:`_pack_narrow`; returns (values, bytes consumed)."""
    if not data:
        raise ValueError("narrow block truncated")
    width = data[0]
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width)
    if code is None:
        raise ValueError(f"bad narrow width {width}")
    end = 1 + width * count
    return list(struct.unpack(f"<{count}{code}", data[1:end])), end


def _pack_utf8_dict(values: Sequence[str]) -> Tuple[List[str], bytes]:
    """Dictionary-code a string column: distinct values in first-seen
    order as a ``utf8`` sub-block, then one narrow index per row."""
    order: Dict[str, int] = {}
    for v in values:
        if v not in order:
            order[v] = len(order)
    distinct = list(order)
    dictionary = _pack_utf8(distinct)
    indexes = _pack_narrow([order[v] for v in values])
    return distinct, _U32.pack(len(order)) + _U32.pack(len(dictionary)) + dictionary + indexes


def _unpack_utf8_dict(data: bytes, count: int) -> List[str]:
    if len(data) < 2 * _U32.size:
        raise ValueError("utf8d block truncated")
    (dict_count,) = _U32.unpack_from(data, 0)
    (dict_len,) = _U32.unpack_from(data, _U32.size)
    body = data[2 * _U32.size :]
    distinct = _unpack_utf8(body[:dict_len], dict_count)
    indexes, _ = _unpack_narrow(body[dict_len:], count)
    try:
        return [distinct[i] for i in indexes]
    except IndexError:
        raise ValueError("utf8d index beyond dictionary") from None


def _pack_i8_delta(values: Sequence[int]) -> bytes:
    """Delta-code a non-decreasing int64 run: ``<q`` first value, then
    narrow non-negative deltas.  Caller guarantees monotonicity."""
    first = values[0] if values else 0
    deltas = [values[i] - values[i - 1] for i in range(1, len(values))]
    return struct.pack("<q", first) + _pack_narrow(deltas)


def _unpack_i8_delta(data: bytes, count: int) -> List[int]:
    if count == 0:
        return []
    if len(data) < 8:
        raise ValueError("i8d block truncated")
    (first,) = struct.unpack_from("<q", data, 0)
    deltas, _ = _unpack_narrow(data[8:], count - 1)
    out = [first]
    for d in deltas:
        out.append(out[-1] + d)
    return out


def _is_non_decreasing(values: Sequence[int]) -> bool:
    return all(values[i] >= values[i - 1] for i in range(1, len(values)))


def encode_column(type_name: str, values: Sequence[Any]) -> Tuple[str, bytes]:
    """Encode one column; returns ``(encoding_tag, block_bytes)``.

    Values are trusted to inhabit their declared SQL type (the storage
    layer coerces on insert); anything the packed encodings cannot carry
    exactly (huge ints, lone surrogates) falls back to JSON.
    """
    has_null = any(v is None for v in values)
    compress = len(values) >= 8
    try:
        if type_name == "BOOLEAN":
            return "bool", bytes(
                2 if v is None else (1 if v else 0) for v in values
            )
        if not has_null:
            if type_name == "INTEGER":
                plain = _pack_i8(values)
                if compress and _is_non_decreasing(values):
                    delta = _pack_i8_delta(values)
                    if len(delta) < len(plain):
                        return "i8d", delta
                return "i8", plain
            if type_name == "FLOAT":
                return "f8", _pack_f8(values)
            if type_name == "TEXT":
                plain = _pack_utf8(values)
                if compress:
                    distinct, coded = _pack_utf8_dict(values)
                    if 2 * len(distinct) <= len(values) and len(coded) < len(plain):
                        return "utf8d", coded
                return "utf8", plain
        else:
            bitmap = _pack_bitmap(values)
            if type_name == "INTEGER":
                return "i8?", bitmap + _pack_i8(
                    [0 if v is None else v for v in values]
                )
            if type_name == "FLOAT":
                return "f8?", bitmap + _pack_f8(
                    [0.0 if v is None else v for v in values]
                )
            if type_name == "TEXT":
                filled = ["" if v is None else v for v in values]
                plain = _pack_utf8(filled)
                if compress:
                    distinct, coded = _pack_utf8_dict(filled)
                    if 2 * len(distinct) <= len(values) and len(coded) < len(plain):
                        return "utf8d?", bitmap + coded
                return "utf8?", bitmap + plain
    except (struct.error, OverflowError, UnicodeEncodeError, TypeError):
        pass
    return "json", json.dumps(list(values), separators=(",", ":")).encode("utf-8")


def decode_column(encoding: str, data: bytes, count: int) -> List[Any]:
    """Decode one column block back into a Python value list."""
    try:
        if encoding == "i8":
            return list(struct.unpack(f"<{count}q", data))
        if encoding == "f8":
            return list(struct.unpack(f"<{count}d", data))
        if encoding == "utf8":
            return _unpack_utf8(data, count)
        if encoding == "i8d":
            return _unpack_i8_delta(data, count)
        if encoding == "utf8d":
            return _unpack_utf8_dict(data, count)
        if encoding == "utf8d?":
            bitmap_len = (count + 7) // 8
            nulls = _unpack_bitmap(data[:bitmap_len], count)
            decoded = _unpack_utf8_dict(data[bitmap_len:], count)
            return [None if null else v for v, null in zip(decoded, nulls)]
        if encoding == "bool":
            if len(data) != count:
                raise ValueError("bool block length mismatch")
            return [None if b == 2 else b == 1 for b in data]
        if encoding in ("i8?", "f8?", "utf8?"):
            bitmap_len = (count + 7) // 8
            nulls = _unpack_bitmap(data[:bitmap_len], count)
            body = data[bitmap_len:]
            if encoding == "i8?":
                raw: Sequence[Any] = struct.unpack(f"<{count}q", body)
            elif encoding == "f8?":
                raw = struct.unpack(f"<{count}d", body)
            else:
                raw = _unpack_utf8(body, count)
            return [None if null else v for v, null in zip(raw, nulls)]
        if encoding == "json":
            decoded = json.loads(data.decode("utf-8"))
            if not isinstance(decoded, list) or len(decoded) != count:
                raise ValueError("json block shape mismatch")
            return decoded
    except (struct.error, UnicodeDecodeError, ValueError, IndexError) as exc:
        raise RecoveryError(f"corrupt {encoding!r} column block: {exc}") from None
    raise RecoveryError(f"unknown column encoding {encoding!r}")


def _unpack_utf8(data: bytes, count: int) -> List[str]:
    lengths_size = 4 * count
    lengths = struct.unpack(f"<{count}I", data[:lengths_size])
    out: List[str] = []
    offset = lengths_size
    for length in lengths:
        end = offset + length
        if end > len(data):
            raise ValueError("utf8 block truncated")
        out.append(data[offset:end].decode("utf-8"))
        offset = end
    return out


# -- segment framing -----------------------------------------------------------


def _frame(header: Dict[str, Any], blocks: Sequence[bytes]) -> bytes:
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload = _U32.pack(len(header_bytes)) + header_bytes + b"".join(blocks)
    # Format-version gate: only segments that actually carry a v2 encoding
    # get the v2 magic, so old readers keep loading everything else and
    # unchanged tables keep their content-addressed names.
    tags = list(header.get("encodings", ()))
    tags.append(header.get("tids", {}).get("enc", ""))
    magic = MAGIC_V2 if any(tag in V2_ENCODINGS for tag in tags) else MAGIC
    return magic + _HEAD.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _unframe(data: bytes) -> Tuple[Dict[str, Any], bytes]:
    directive = _faults.failpoint("segment.decode")
    if directive in ("corrupt", "truncate", "short") and data:
        # Cooperative injection: damage the framed bytes and let the
        # real CRC/framing checks below produce the RecoveryError, so
        # the exact corruption-detection path is what gets exercised.
        if directive == "corrupt":
            data = data[:-1] + bytes([data[-1] ^ 0x01])
        else:
            data = data[: len(data) // 2]
    known = data.startswith(MAGIC) or data.startswith(MAGIC_V2)
    if len(data) < len(MAGIC) + _HEAD.size or not known:
        if data.startswith(b"MBSEG"):
            raise RecoveryError(
                f"segment format {data[:8]!r} is newer than this reader"
            )
        raise RecoveryError("segment missing magic header (torn or not a segment)")
    length, crc = _HEAD.unpack_from(data, len(MAGIC))
    payload = data[len(MAGIC) + _HEAD.size :]
    if len(payload) != length:
        raise RecoveryError(
            f"segment payload is {len(payload)} bytes, header says {length} (torn)"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise RecoveryError("segment checksum mismatch (corrupt)")
    (header_len,) = _U32.unpack_from(payload, 0)
    try:
        header = json.loads(payload[_U32.size : _U32.size + header_len].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise RecoveryError(f"segment header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise RecoveryError("segment header must be a JSON object")
    return header, payload[_U32.size + header_len :]


def _split_blocks(body: bytes, lengths: Sequence[int]) -> List[bytes]:
    blocks: List[bytes] = []
    offset = 0
    for length in lengths:
        end = offset + int(length)
        if end > len(body):
            raise RecoveryError("segment block table exceeds payload (torn)")
        blocks.append(body[offset:end])
        offset = end
    return blocks


def segment_name(data: bytes) -> str:
    """Content-addressed file name for an encoded segment."""
    return f"seg-{hashlib.sha256(data).hexdigest()[:16]}{SEGMENT_SUFFIX}"


# -- table segments ------------------------------------------------------------


def encode_table_segment(
    name: str,
    table_kind: str,
    properties: Dict[str, Any],
    columns_meta: Sequence[Tuple[str, str]],
    tids: Sequence[int],
    columns: Sequence[Sequence[Any]],
    next_tid: int,
) -> bytes:
    """Serialize one table's contents + catalog metadata as a segment.

    ``columns_meta`` is ``[(column_name, type_name), ...]`` matching
    ``columns`` (one value sequence per column, all of ``len(tids)``).
    """
    row_count = len(tids)
    blocks: List[bytes] = []
    # Tuple ids: the dense common case (an untouched insert order) costs
    # nothing; tables with deletion holes carry an explicit i8 block.
    first = tids[0] if tids else 1
    if list(tids) == list(range(first, first + row_count)):
        tid_spec: Dict[str, Any] = {"enc": "range", "start": first}
    else:
        # Tuple ids with deletion holes are still sorted, so the v2
        # delta encoding usually applies; encode_column picks it (or
        # plain i8) and the chosen tag rides in the manifest's tid spec.
        tag, block = encode_column("INTEGER", list(tids))
        tid_spec = {"enc": tag}
        blocks.append(block)
    encodings: List[str] = []
    for (_, type_name), values in zip(columns_meta, columns):
        encoding, block = encode_column(type_name, values)
        encodings.append(encoding)
        blocks.append(block)
    header = {
        "kind": "table",
        "table": name,
        "table_kind": table_kind,
        "properties": dict(properties),
        "columns": [[n, t] for n, t in columns_meta],
        "row_count": row_count,
        "next_tid": int(next_tid),
        "tids": tid_spec,
        "encodings": encodings,
        "blocks": [len(b) for b in blocks],
    }
    return _frame(header, blocks)


def decode_table_segment(data: bytes) -> Dict[str, Any]:
    """Decode a table segment into header metadata + materialized columns.

    Returns a dict with ``table``, ``table_kind``, ``properties``,
    ``columns`` (name/type pairs), ``tids``, ``column_values`` (one list
    per column), ``next_tid``, ``row_count``.  Segments written while
    tables still had indexes carry an ``indexes`` header field; it is
    ignored.
    """
    header, body = _unframe(data)
    if header.get("kind") != "table":
        raise RecoveryError(f"expected a table segment, got {header.get('kind')!r}")
    row_count = int(header["row_count"])
    blocks = _split_blocks(body, header["blocks"])
    cursor = 0
    tid_spec = header["tids"]
    if tid_spec["enc"] == "range":
        start = int(tid_spec["start"])
        tids: List[int] = list(range(start, start + row_count))
    else:
        tids = decode_column(tid_spec["enc"], blocks[cursor], row_count)
        cursor += 1
    column_values: List[List[Any]] = []
    for encoding in header["encodings"]:
        column_values.append(decode_column(encoding, blocks[cursor], row_count))
        cursor += 1
    if len(column_values) != len(header["columns"]):
        raise RecoveryError("segment column count mismatch")
    return {
        "table": header["table"],
        "table_kind": header["table_kind"],
        "properties": header["properties"],
        "columns": [(n, t) for n, t in header["columns"]],
        "tids": tids,
        "column_values": column_values,
        "next_tid": int(header["next_tid"]),
        "row_count": row_count,
    }


# -- registry segments ---------------------------------------------------------


def encode_registry_segment(state: Dict[str, Any]) -> bytes:
    """Serialize a :meth:`VariableRegistry.dump_state` snapshot (possibly a
    delta: variables at or above some id floor) as a segment: variable ids
    and flattened distributions go into packed arrays.

    Each block goes through :func:`encode_column`, so values the packed
    encodings cannot carry exactly -- variable names built from user text
    with lone surrogates, domain values beyond int64 -- degrade to the
    JSON encoding instead of making every future checkpoint fail.
    """
    variables = state["variables"]
    var_ids = [int(v) for v, _, _ in variables]
    names = [str(n) for _, n, _ in variables]
    counts = [len(dist) for _, _, dist in variables]
    flat_values = [int(value) for _, _, dist in variables for value, _ in dist]
    flat_probs = [float(p) for _, _, dist in variables for _, p in dist]
    encoded = [
        encode_column("INTEGER", var_ids),
        encode_column("TEXT", names),
        encode_column("INTEGER", counts),
        encode_column("INTEGER", flat_values),
        encode_column("FLOAT", flat_probs),
    ]
    header = {
        "kind": "registry",
        "next_id": int(state["next_id"]),
        "count": len(variables),
        "alternatives": len(flat_values),
        "encodings": [encoding for encoding, _ in encoded],
        "blocks": [len(block) for _, block in encoded],
    }
    return _frame(header, [block for _, block in encoded])


def decode_registry_segment(data: bytes) -> Dict[str, Any]:
    """Decode a registry segment back into ``dump_state`` shape."""
    header, body = _unframe(data)
    if header.get("kind") != "registry":
        raise RecoveryError(
            f"expected a registry segment, got {header.get('kind')!r}"
        )
    count = int(header["count"])
    alternatives = int(header["alternatives"])
    blocks = _split_blocks(body, header["blocks"])
    encodings = header["encodings"]
    if len(encodings) != 5 or len(blocks) != 5:
        raise RecoveryError("registry segment must carry exactly 5 blocks")
    var_ids = decode_column(encodings[0], blocks[0], count)
    names = decode_column(encodings[1], blocks[1], count)
    counts = decode_column(encodings[2], blocks[2], count)
    flat_values = decode_column(encodings[3], blocks[3], alternatives)
    flat_probs = decode_column(encodings[4], blocks[4], alternatives)
    if sum(counts) != alternatives:
        raise RecoveryError("registry segment alternative counts do not add up")
    variables: List[List[Any]] = []
    offset = 0
    for var, name, n in zip(var_ids, names, counts):
        dist = [
            [flat_values[i], flat_probs[i]] for i in range(offset, offset + n)
        ]
        offset += n
        variables.append([var, name, dist])
    return {"next_id": int(header["next_id"]), "variables": variables}
