#!/usr/bin/env python3
"""Seed corpus generator for fuzz_sweep_result_log.

Writes one file per interesting VBRSWPL1 shape into
fuzz/corpus/sweep_result_log/: a healthy two-record log, every flavour of
torn tail, header corruption (magic/version/CRC/field skew), and record
corruption that must be rejected rather than healed (out-of-range index,
bogus tags, conflicting duplicates). The byte layout mirrors
src/vbr/sweep/result_log.cpp exactly; vbr::crc32 is the zlib polynomial, so
zlib.crc32 produces identical checksums.
"""
import argparse
import pathlib
import struct
import zlib

MAGIC = b"VBRSWPL1"
VERSION = 1
# kCellResultBytes / sizeof(double) in src/vbr/sweep/cell_eval.hpp: a done
# record's result is this many raw f64 fields.
RESULT_FIELDS = 8
DONE_RECORD = f"<QB{RESULT_FIELDS}d"

# fuzz_header() in fuzz_sweep_result_log.cpp — paths 2/3 prepend this exact
# header, so corpus records target its shard range [16, 32).
HEADER_FIELDS = (
    0x5157454550313934,  # sweep_fingerprint
    0x0053484152443031,  # shard_fingerprint
    64,                  # total_cells
    4,                   # shard_count
    1,                   # shard_index
    16,                  # first_cell
    32,                  # end_cell
)


def sealed_header(fields=HEADER_FIELDS, magic=MAGIC, version=VERSION):
    payload = struct.pack("<7Q", *fields)
    return (magic + struct.pack("<IQI", version, len(payload),
                                zlib.crc32(payload)) + payload)


def string_field(data: bytes) -> bytes:
    """io::write_string: u32 length + raw bytes."""
    return struct.pack("<I", len(data)) + data


def frame(payload: bytes) -> bytes:
    return struct.pack("<QI", len(payload), zlib.crc32(payload)) + payload


def done_record(index: int, results=(5.3e6, 6.6e6, 8192.0, 1.25e-3, 900.0, 8192.0,
                                     0.0, 0.0)) -> bytes:
    return struct.pack(DONE_RECORD, index, 1, *results)


def quarantined_record(index: int, message=b"watchdog deadline exceeded",
                       kind=2) -> bytes:
    head = struct.pack("<QB3I2Qd", index, 2, kind, 0, 9, 3, 5120, 1.5)
    return head + string_field(message) + string_field(b"noise")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="fuzz/corpus/sweep_result_log")
    out = pathlib.Path(parser.parse_args().out)
    out.mkdir(parents=True, exist_ok=True)

    healthy = sealed_header() + frame(done_record(16)) + frame(quarantined_record(20))

    seeds = {
        "valid": healthy,
        "header_only": sealed_header(),
        "torn_frame_header": healthy + b"\x40\x00\x00\x00\x00\x00\x00",
        "torn_payload": healthy + frame(done_record(25))[:-10],
        "bad_magic": b"VBRSWPL0" + healthy[8:],
        "version_skew": sealed_header(version=VERSION + 1),
        "header_truncated": healthy[:40],
        "header_crc_flip": healthy[:30] + bytes([healthy[30] ^ 0x10]) + healthy[31:],
        # CRC-valid header whose fields are nonsense: shard slot outside the
        # shard count — forged, not torn, so it must throw.
        "header_field_skew": sealed_header(fields=(1, 2, 64, 4, 4, 16, 32)),
        "record_crc_flip": (healthy[:-3] + bytes([healthy[-3] ^ 0x10]) + healthy[-2:]),
        "record_out_of_range": sealed_header() + frame(done_record(40)),
        "record_bad_status": sealed_header()
        + frame(struct.pack(DONE_RECORD, 17, 7, *(0.0,) * RESULT_FIELDS)),
        "record_bad_kind": sealed_header() + frame(quarantined_record(18, kind=9)),
        "record_trailing": sealed_header() + frame(done_record(16) + b"\x00"),
        "record_size_lies": sealed_header() + struct.pack("<QI", 1 << 40, 0),
        "duplicate": sealed_header() + frame(done_record(16)) * 2,
        "conflicting_duplicate": sealed_header()
        + frame(done_record(16))
        + frame(done_record(16, results=tuple(float(i) for i in range(1, RESULT_FIELDS + 1)))),
        "oversized_message": sealed_header()
        + frame(quarantined_record(19, message=b"x" * 5000)),
    }
    for name, data in seeds.items():
        (out / name).write_bytes(data)
    print(f"wrote {len(seeds)} seeds to {out}")


if __name__ == "__main__":
    main()
