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

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "generate_scene",
    "generate_stereo_pair",
    "generate_motion_sequence",
    "embed_template",
]


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


def generate_stereo_pair(
    height: int = 200,
    width: int = 300,
    max_disparity: int = 12,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A rectified stereo pair with a known disparity map.

    The scene is split into depth bands; each band of the right image is
    the left image shifted horizontally by the band's disparity.  Returns
    ``(left, right, true_disparity)``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    left = generate_scene(height, width, rng=rng)

    # three horizontal depth bands with decreasing disparity
    disparity = np.zeros((height, width), dtype=float)
    band_edges = [0, height // 3, 2 * height // 3, height]
    band_disp = [max_disparity, max_disparity // 2, max(1, max_disparity // 4)]
    for (y0, y1), d in zip(zip(band_edges, band_edges[1:]), band_disp):
        disparity[y0:y1, :] = d

    right = np.empty_like(left)
    for band, d in zip(zip(band_edges, band_edges[1:]), band_disp):
        y0, y1 = band
        right[y0:y1] = np.roll(left[y0:y1], -d, axis=1)
    return left, right, disparity


def generate_motion_sequence(
    num_frames: int = 4,
    height: int = 200,
    width: int = 300,
    object_size: int = 20,
    velocity: Tuple[int, int] = (3, 5),
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Frames of a static scene with one moving bright square."""
    if num_frames < 2:
        raise ValueError("need at least two frames")
    rng = rng if rng is not None else np.random.default_rng(0)
    background = generate_scene(height, width, rng=rng)
    frames = []
    cy, cx = height // 4, width // 4
    vy, vx = velocity
    for _ in range(num_frames):
        frame = background.copy()
        y0 = int(np.clip(cy, 0, height - object_size))
        x0 = int(np.clip(cx, 0, width - object_size))
        frame[y0 : y0 + object_size, x0 : x0 + object_size] = 0.95
        frames.append(frame)
        cy += vy
        cx += vx
    return frames


def embed_template(
    scene: np.ndarray,
    template: np.ndarray,
    position: Tuple[int, int],
) -> np.ndarray:
    """Paste ``template`` into ``scene`` at ``(row, col)``; returns a copy."""
    out = scene.copy()
    r, c = position
    th, tw = template.shape
    if r < 0 or c < 0 or r + th > scene.shape[0] or c + tw > scene.shape[1]:
        raise ValueError("template does not fit at the given position")
    out[r : r + th, c : c + tw] = template
    return out
