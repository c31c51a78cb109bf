"""Multimodal example: real PNG/WAV decode through actor-pool stages.

Run: python examples/media_features.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(smoke: bool = False) -> None:
    import ray.data

    from html_parser_ray.stages.multimodal import (
        build_audio_feature_pipeline,
        build_frame_sample_pipeline,
        build_media_feature_pipeline,
        synth_media_table,
    )

    n = 15 if smoke else 60
    t = synth_media_table(n, seed=42)

    imgs = build_media_feature_pipeline(ray.data.from_arrow(t), concurrency=2).take_all()
    n_img_decoded = sum(1 for r in imgs if r["decoded"])

    audio = build_audio_feature_pipeline(ray.data.from_arrow(t), concurrency=2).take_all()
    n_audio_decoded = sum(1 for r in audio if r["decoded"])

    frames = build_frame_sample_pipeline(
        ray.data.from_arrow(t), concurrency=2, num_frames=2
    ).take_all()

    print(
        f"decoded {n_img_decoded} PNGs, {n_audio_decoded} WAVs; "
        f"sampled {len(frames)} video frame offsets (frame grab stubbed)"
    )
    assert n_img_decoded == t.column("media_type").to_pylist().count("image")
    assert n_audio_decoded == t.column("media_type").to_pylist().count("audio")


if __name__ == "__main__":
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    run()
    ray.shutdown()
