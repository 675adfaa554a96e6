"""Synthetic image generation for the robot-vision case study.

The paper's case study processes camera images; we have no camera, so we
generate structured synthetic scenes (DESIGN.md §2).  Scenes combine a
smooth illumination gradient, geometric objects (rectangles and disks)
and band-limited texture noise — enough spatial structure that scaling
genuinely destroys information (so PSNR-vs-level is a meaningful quality
curve).

Images are ``float64`` arrays in ``[0, 1]``, shape ``(height, width)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["generate_scene"]


def _smooth_noise(
    shape: Tuple[int, int], rng: np.random.Generator, smoothing: int = 4
) -> np.ndarray:
    """Band-limited noise: white noise box-filtered ``smoothing`` times."""
    noise = rng.random(shape)
    for _ in range(smoothing):
        noise = (
            noise
            + np.roll(noise, 1, axis=0)
            + np.roll(noise, -1, axis=0)
            + np.roll(noise, 1, axis=1)
            + np.roll(noise, -1, axis=1)
        ) / 5.0
    lo, hi = noise.min(), noise.max()
    if hi > lo:
        noise = (noise - lo) / (hi - lo)
    return noise


def generate_scene(
    height: int = 200,
    width: int = 300,
    num_objects: int = 6,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """A structured grayscale scene.

    Default size matches the motivation example's 300×200 images.
    """
    if height < 8 or width < 8:
        raise ValueError("scene must be at least 8x8")
    rng = rng if rng is not None else np.random.default_rng(0)

    yy, xx = np.mgrid[0:height, 0:width]
    gradient = 0.3 + 0.4 * (xx / max(width - 1, 1) + yy / max(height - 1, 1)) / 2.0
    scene = gradient + 0.25 * _smooth_noise((height, width), rng)

    for _ in range(num_objects):
        cy = rng.integers(0, height)
        cx = rng.integers(0, width)
        size = int(rng.integers(max(4, min(height, width) // 20),
                                max(6, min(height, width) // 5)))
        brightness = float(rng.uniform(0.0, 1.0))
        if rng.random() < 0.5:  # rectangle
            y0, y1 = max(0, cy - size // 2), min(height, cy + size // 2)
            x0, x1 = max(0, cx - size // 2), min(width, cx + size // 2)
            scene[y0:y1, x0:x1] = brightness
        else:  # disk
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= (size // 2) ** 2
            scene[mask] = brightness

    return np.clip(scene, 0.0, 1.0)
