"""Per-frame chart extraction and deterministic atlas packing on the CPU."""

from .geometry import (
    CameraFrame,
    DegenerateChart,
)
from .charts import (
    ChartSet,
    Mesh,
    VisibilityBuffer,
    chart_bbox,
    connected_charts,
    depth_prepass,
    load_obj,
    mark_visible,
    merge_shared_vertices,
    screen_setup,
)
from .packing import (
    AtlasLayout,
    ChartBox,
    FoldResult,
    HeightOverflow,
    PackFailure,
    Placement,
    box_table,
    fold,
    pack,
    pack_at_scale,
    push_up,
)
from .metrics import (
    DegenerateTriangle,
    LayoutDigest,
    NoValidTriangles,
    StretchReport,
    layout_digest,
    layouts_equal,
    packing_efficiency,
    scene_stretch,
    triangle_stretch,
)
from .baselines import (
    SuperblockLayout,
    sequential_fold,
    sequential_scale_search,
    superblock_pack,
)

__version__ = "0.1.0"

__all__ = [
    "AtlasLayout",
    "CameraFrame",
    "ChartBox",
    "ChartSet",
    "DegenerateChart",
    "DegenerateTriangle",
    "FoldResult",
    "HeightOverflow",
    "LayoutDigest",
    "Mesh",
    "NoValidTriangles",
    "PackFailure",
    "Placement",
    "StretchReport",
    "SuperblockLayout",
    "VisibilityBuffer",
    "box_table",
    "chart_bbox",
    "connected_charts",
    "depth_prepass",
    "fold",
    "layout_digest",
    "layouts_equal",
    "load_obj",
    "mark_visible",
    "merge_shared_vertices",
    "pack",
    "pack_at_scale",
    "packing_efficiency",
    "push_up",
    "scene_stretch",
    "screen_setup",
    "sequential_fold",
    "sequential_scale_search",
    "superblock_pack",
    "triangle_stretch",
]
