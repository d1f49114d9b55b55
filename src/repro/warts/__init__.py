"""Warts-like binary trace archive codec."""

from .format import (
    MAX_RECORD_LENGTH,
    WartsError,
    WartsReader,
    WartsWriter,
    decode_trace,
    encode_trace,
    read_archive,
    salvage_archive,
    write_archive,
)

__all__ = [
    "MAX_RECORD_LENGTH",
    "WartsError",
    "WartsReader",
    "WartsWriter",
    "decode_trace",
    "encode_trace",
    "read_archive",
    "salvage_archive",
    "write_archive",
]
