"""Tests for synthetic image generation, scaling and PSNR."""

import numpy as np
import pytest

from repro.vision.images import generate_scene
from repro.vision.psnr import PSNR_CAP, mse, psnr
from repro.vision.scaling import downscale, roundtrip, scaled_shape, upscale


class TestSceneGeneration:
    def test_shape_and_range(self, rng):
        scene = generate_scene(120, 160, rng=rng)
        assert scene.shape == (120, 160)
        assert scene.min() >= 0.0
        assert scene.max() <= 1.0

    def test_has_structure(self, rng):
        """Scenes must not be flat — kernels need content."""
        scene = generate_scene(rng=rng)
        assert scene.std() > 0.05

    def test_deterministic_per_seed(self):
        a = generate_scene(rng=np.random.default_rng(5))
        b = generate_scene(rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_too_small_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_scene(4, 4, rng=rng)


class TestScaling:
    def test_scaled_shape(self):
        assert scaled_shape((200, 300), 0.5) == (100, 150)
        assert scaled_shape((200, 300), 1.0) == (200, 300)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            scaled_shape((10, 10), 0.0)
        with pytest.raises(ValueError):
            scaled_shape((10, 10), 1.5)

    def test_downscale_shape(self, rng):
        scene = generate_scene(100, 200, rng=rng)
        assert downscale(scene, 0.5).shape == (50, 100)

    def test_factor_one_is_copy(self, rng):
        scene = generate_scene(40, 40, rng=rng)
        out = downscale(scene, 1.0)
        np.testing.assert_array_equal(out, scene)
        assert out is not scene

    def test_upscale_restores_shape(self, rng):
        scene = generate_scene(64, 64, rng=rng)
        small = downscale(scene, 0.5)
        assert upscale(small, (64, 64)).shape == (64, 64)

    def test_roundtrip_loses_information_monotonically(self, rng):
        """Smaller scaling factors lose more information — the case
        study's premise that quality increases with level."""
        scene = generate_scene(rng=rng)
        qualities = [
            psnr(scene, roundtrip(scene, f)) for f in (0.3, 0.5, 0.8, 1.0)
        ]
        assert qualities == sorted(qualities)
        assert qualities[-1] == PSNR_CAP  # factor 1.0 is lossless

    def test_values_stay_in_range(self, rng):
        scene = generate_scene(rng=rng)
        out = roundtrip(scene, 0.4)
        assert out.min() >= -1e-9
        assert out.max() <= 1.0 + 1e-9

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            downscale(np.zeros((3, 3, 3)), 0.5)


class TestPsnr:
    def test_identical_images_capped(self):
        img = np.ones((10, 10)) * 0.5
        assert psnr(img, img) == PSNR_CAP

    def test_known_mse(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)
        assert mse(a, b) == pytest.approx(0.01)
        assert psnr(a, b) == pytest.approx(20.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((5, 5)), np.zeros((6, 6)))

    def test_peak_validation(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((2, 2)), peak=0.0)

    def test_worse_distortion_lower_psnr(self):
        ref = np.zeros((10, 10))
        assert psnr(ref, np.full((10, 10), 0.2)) < psnr(
            ref, np.full((10, 10), 0.1)
        )
