"""Mutation fuzz for the untrusted-payload decoders (AVI, GIF, PDF).

These kernels parse raw crawl bytes; the contract on ADVERSARIAL input is
"raise the codec's typed error or return a structurally valid result" —
never a crash, hang, or silent garbage. Each fuzz case mutates a valid
payload (byte flips, truncations, splices) with seeded randomness so
failures replay deterministically. The native PDF kernel additionally must
decline-or-match (its parity contract) on every mutant.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from html_parser_ray.functions import avicodec, gifcodec
from html_parser_ray.functions.pdfcodec import PdfError, parse_pdf, synth_pdf


def _mutants(payload: bytes, rng: random.Random, n: int):
    out = []
    for _ in range(n):
        b = bytearray(payload)
        op = rng.randrange(4)
        if op == 0 and b:  # byte flips
            for _ in range(rng.randint(1, 8)):
                i = rng.randrange(len(b))
                b[i] ^= 1 << rng.randrange(8)
        elif op == 1 and len(b) > 4:  # truncate
            del b[rng.randrange(1, len(b)) :]
        elif op == 2 and b:  # splice a random run
            i = rng.randrange(len(b))
            b[i : i + rng.randint(1, 32)] = bytes(
                rng.randrange(256) for _ in range(rng.randint(0, 48))
            )
        else:  # length-field style: overwrite 4 bytes with a huge LE int
            i = rng.randrange(max(1, len(b) - 4))
            b[i : i + 4] = (0x7FFFFFF0).to_bytes(4, "little")
        out.append(bytes(b))
    return out


def test_avi_decode_never_crashes_on_mutants():
    rng = random.Random(4242)
    base = avicodec.synth_avi(1, w=17, h=9, n_frames=3, fps=6)
    for mut in _mutants(base, rng, 300):
        try:
            doc = avicodec.decode_avi(mut)
        except avicodec.AviError:
            continue
        # structurally valid result: dims positive, frames well-shaped
        assert doc["width"] > 0 and doc["height"] > 0
        for f in doc["frames"]:
            assert f["rgb"].shape == (doc["height"], doc["width"], 3)


def test_gif_decode_never_crashes_on_mutants():
    rng = random.Random(777)
    base = gifcodec.synth_gif(3, w=16, h=12, n_frames=3)
    for mut in _mutants(base, rng, 300):
        try:
            doc = gifcodec.decode_gif(mut)
        except gifcodec.GifError:
            continue
        assert doc["width"] > 0 and doc["height"] > 0
        for f in doc["frames"]:
            assert f["rgb"].shape[2] == 3


def test_pdf_parse_never_crashes_and_native_declines_or_matches():
    from html_parser_ray.native import get_native_pdf_summary

    native = get_native_pdf_summary()
    rng = random.Random(90210)
    base = synth_pdf("media://pdf/000042")
    for mut in _mutants(base, rng, 200):
        try:
            pure = parse_pdf(mut)
        except PdfError:
            pure = None
        except (ValueError, OverflowError):
            # numeric-field noise can surface as generic conversion errors in
            # float() of mangled operands — acceptable typed failures
            pure = None
        if native is None:
            continue
        ns = native([mut])[0]
        if ns is None:
            continue  # decline is always allowed
        assert pure is not None, "native succeeded where pure parser errored"
        texts = [t[3] for pg in pure["pages"] for t in pg["texts"]]
        rects = sum(len(pg["rects"]) for pg in pure["pages"])
        got = (ns[0], ns[1], ns[2], ns[3].decode("utf-8", "replace"))
        assert got == (pure["num_pages"], len(texts), rects, "\n".join(texts))


def test_frame_stage_total_on_mutant_videos(ray_session):
    """The Ray stage must stay TOTAL on undecodable mutants: every (video,
    sample) slot yields a row, flagged decoded=False, never an exception."""
    import pyarrow as pa

    from html_parser_ray.stages.multimodal import FrameSampleStage

    rng = random.Random(5)
    base = avicodec.synth_avi(9, n_frames=4)
    muts = _mutants(base, rng, 20)
    tbl = pa.table(
        {
            "media_id": [f"v{i}" for i in range(len(muts))],
            "media_type": ["video"] * len(muts),
            "payload": pa.array(muts, type=pa.binary()),
            "meta_width": pa.array([32] * len(muts), type=pa.int32()),
            "meta_height": pa.array([24] * len(muts), type=pa.int32()),
            "meta_duration_ms": pa.array([400] * len(muts), type=pa.int32()),
        }
    )
    out = FrameSampleStage(num_frames=2)(tbl)
    assert out.num_rows == 2 * len(muts)
