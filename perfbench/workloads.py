"""Seeded input generators for the three benchmark workloads.

Every input is a pure function of the seed: the same seed writes
byte-identical files. The program under test only ever sees the files.
Scenes are drawn once from MESH_SEED and the seed orders their views;
box sets are fixed and the seed permutes their lines before every op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from atlaspack.cli import generate_boxes, write_box_file
from atlaspack.packing import ChartBox

SCENE_OMEGA = 2048
BOXES_OMEGA = 4096
BOXES_COUNT = 3000
# Each scene's mesh and camera views are fixed; the run's seed orders the
# views. The packer's scale on a cube view can jump by 0.12 when the view
# turns by a degree, so views drawn per seed moved a 16-view run's mean
# efficiency by 10% (sd) from seed to seed. Fixed views keep quality
# deterministic, so a small bound catches a quality regression.
MESH_SEED = 2502
# generate_boxes seeds of the boxes-heavy sets; the run's seed permutes
# their lines. Whether a set packs at all is a property of the set (seed 0
# raises PackFailure, seeds 1 and 2 reach scale 1/64), so sets drawn per
# seed would read a different failure share on every seed.
BOXES_GEN_SEEDS = (0, 1, 2)


@dataclass
class Input:
    """One input the ops cycle through, with the CLI call that reads it."""

    key: str
    argv: tuple[str, ...]
    out_prefix: Path
    omega: int
    triangles: int = 0
    # Box inputs only: the box set, rewritten in a new seeded line order
    # before each op.
    boxes: list[ChartBox] | None = None
    path: Path | None = None
    rng: np.random.Generator | None = None

    def prepare(self) -> None:
        if self.boxes is not None:
            order = self.rng.permutation(len(self.boxes))
            write_box_file([self.boxes[i] for i in order], self.path)

    def outputs(self) -> dict[str, Path]:
        p = self.out_prefix
        return {s: p.parent / (p.name + s) for s in (".layout.txt", ".charts.txt", ".metrics.csv")}


def _obj_text(positions: np.ndarray, triangles: np.ndarray) -> str:
    lines = [f"v {x:.6f} {y:.6f} {z:.6f}" for x, y, z in positions]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in triangles]
    return "\n".join(lines) + "\n"


def grid_mesh(rng: np.random.Generator, n: int = 60, size: float = 60.0):
    """Bumpy n x n height field: 2 n^2 triangles, all facing up."""
    xs = np.linspace(-size / 2, size / 2, n + 1)
    gx, gz = np.meshgrid(xs, xs)
    height = np.zeros_like(gx)
    for _ in range(6):
        kx, kz = rng.uniform(0.08, 0.35, size=2)
        phase = rng.uniform(0, 2 * math.pi)
        height += rng.uniform(0.4, 1.2) * np.sin(kx * gx + kz * gz + phase)
    height += rng.normal(0.0, 0.15, size=height.shape)
    positions = np.column_stack([gx.ravel(), height.ravel(), gz.ravel()])
    idx = np.arange((n + 1) * (n + 1)).reshape(n + 1, n + 1)
    a, b = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()
    c, d = idx[1:, :-1].ravel(), idx[1:, 1:].ravel()
    # Counter-clockwise seen from above (+y), so the camera sees front faces.
    tris = np.concatenate([np.column_stack([a, c, b]), np.column_stack([b, c, d])])
    return positions, tris


# Cube corners and outward-facing (counter-clockwise) triangles.
_CUBE_CORNERS = np.array(
    [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64
)
_CUBE_TRIS = np.array(
    [
        [0, 1, 3], [0, 3, 2],  # -x
        [4, 6, 7], [4, 7, 5],  # +x
        [0, 4, 5], [0, 5, 1],  # -y
        [2, 3, 7], [2, 7, 6],  # +y
        [0, 2, 6], [0, 6, 4],  # -z
        [1, 5, 7], [1, 7, 3],  # +z
    ],
    dtype=np.int64,
)


def cubes_mesh(rng: np.random.Generator, count: int = 400, extent: float = 36.0):
    """Scattered, rotated cubes of mixed sizes: 12 triangles each."""
    positions, tris = [], []
    for i in range(count):
        half = 0.25 + 1.25 * rng.random() ** 2
        q = rng.normal(size=4)
        w, x, y, z = q / np.linalg.norm(q)
        rot = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        center = rng.uniform(-extent / 2, extent / 2, size=3) * (1.0, 0.3, 1.0)
        positions.append(_CUBE_CORNERS * half @ rot.T + center)
        tris.append(_CUBE_TRIS + 8 * i)
    return np.concatenate(positions), np.concatenate(tris)


def camera_path(rng: np.random.Generator, radius: float, height: float, frames: int):
    """Frames evenly spaced on an orbit around the origin, seen from every side."""
    theta0 = rng.uniform(0, 2 * math.pi)
    out = []
    for f in range(frames):
        theta = theta0 + 2 * math.pi * f / frames
        pos = (radius * math.cos(theta), height, radius * math.sin(theta))
        target = tuple(rng.uniform(-1.0, 1.0, size=3) * (1.0, 0.2, 1.0))
        out.append((pos, target))
    return out


def _vec(v) -> str:
    return " ".join(f"{c:.6f}" for c in v)


def _scene_text(mesh_name: str, pos, target, screen, fov_y: float, far: float) -> str:
    return (
        f"mesh {mesh_name}\n"
        f"fov_y {fov_y}\nnear 0.1\nfar {far}\n"
        f"position {_vec(pos)}\nlook_at {_vec(target)}\nup 0 1 0\n"
        f"screen {screen[0]} {screen[1]}\nomega {SCENE_OMEGA}\nscales 64\n"
    )


def _write_scene_inputs(
    workdir: Path, name: str, mesh_fn, seed: int, orbit, screen, fov_y: float
) -> list[Input]:
    rng = np.random.default_rng(MESH_SEED)
    positions, tris = mesh_fn(rng)
    path = camera_path(rng, *orbit)
    mesh = workdir / f"{name}.obj"
    mesh.write_text(_obj_text(positions, tris))
    inputs = []
    for view in np.random.default_rng([seed, 1]).permutation(len(path)):
        pos, target = path[view]
        cfg = workdir / f"{name}-view{view}.cfg"
        cfg.write_text(_scene_text(mesh.name, pos, target, screen, fov_y, far=200.0))
        out = workdir / "out" / f"{name}-view{view}"
        argv = ("atlas-scene", str(cfg), "--out", str(out))
        inputs.append(Input(cfg.name, argv, out, SCENE_OMEGA, triangles=len(tris)))
    return inputs


def write_scene_grid(workdir: Path, seed: int) -> list[Input]:
    orbit = (40.0, 40.0, 4)  # radius, height, frames
    return _write_scene_inputs(workdir, "grid", grid_mesh, seed, orbit, (640, 360), 60.0)


def write_scene_cubes(workdir: Path, seed: int) -> list[Input]:
    orbit = (30.0, 16.0, 16)
    return _write_scene_inputs(workdir, "cubes", cubes_mesh, seed, orbit, (960, 540), 60.0)


def write_boxes_heavy(workdir: Path, seed: int) -> list[Input]:
    inputs = []
    for gen_seed in BOXES_GEN_SEEDS:
        boxes = generate_boxes(BOXES_COUNT, 2048, np.random.default_rng(gen_seed))
        src = workdir / f"boxes-{gen_seed}.txt"
        write_box_file(boxes, src)
        out = workdir / "out" / f"boxes-{gen_seed}"
        argv = ("pack-boxes", str(src), "--omega", str(BOXES_OMEGA), "--out", str(out))
        rng = np.random.default_rng([seed, 3, gen_seed])
        inputs.append(Input(src.name, argv, out, BOXES_OMEGA, boxes=boxes, path=src, rng=rng))
    return inputs


WRITERS = {
    "scene-grid": write_scene_grid,
    "scene-cubes": write_scene_cubes,
    "boxes-heavy": write_boxes_heavy,
}
