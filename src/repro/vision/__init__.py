"""Robot-vision case-study substrate (paper §6.1).

Synthetic scene generation, image scaling, PSNR quality metrics, and
construction of the Table 1 task set — both from the published numbers
and regenerated end to end.
"""

from .images import (
    embed_template,
    generate_motion_sequence,
    generate_scene,
    generate_stereo_pair,
)
from .psnr import PSNR_CAP, mse, psnr
from .scaling import downscale, roundtrip, scaled_shape, upscale
from .tasks import (
    DEFAULT_LEVEL_FACTORS,
    KERNEL_COSTS,
    LOCAL_LEVEL_FACTOR,
    TABLE1,
    Table1Row,
    build_measured_task_set,
    level_quality,
    measured_benefit_functions,
    table1_task_set,
)

__all__ = [
    "generate_scene",
    "generate_stereo_pair",
    "generate_motion_sequence",
    "embed_template",
    "mse",
    "psnr",
    "PSNR_CAP",
    "downscale",
    "upscale",
    "roundtrip",
    "scaled_shape",
    "TABLE1",
    "Table1Row",
    "KERNEL_COSTS",
    "table1_task_set",
    "level_quality",
    "measured_benefit_functions",
    "build_measured_task_set",
    "DEFAULT_LEVEL_FACTORS",
    "LOCAL_LEVEL_FACTOR",
]
