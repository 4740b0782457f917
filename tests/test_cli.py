import argparse
import csv
import sys
import time
import tracemalloc
from collections import Counter
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import atlaspack
from atlaspack import PackFailure, box_table, charts, layouts_equal, pack
from atlaspack.cli import (
    EXIT_BAD_INPUT,
    EXIT_NOTHING_VISIBLE,
    EXIT_OK,
    EXIT_PACK_FAILURE,
    MAX_GEN_COUNT,
    MAX_SCREEN_PIXELS,
    PACKER_NAMES,
    InputError,
    NothingVisible,
    SceneConfig,
    _looks_like_scene,
    build_parser,
    frame_charts,
    generate_boxes,
    main,
    parse_box_file,
    parse_layout_file,
    parse_scene_config,
    run_scene_pipeline,
    scene_config_problem,
    write_box_file,
    write_charts_file,
    write_layout_file,
)
from atlaspack.charts import (
    Mesh,
    VisibilityBuffer,
    connected_charts,
    depth_prepass,
    load_obj,
    merge_shared_vertices,
    records,
    screen_bands,
)
from atlaspack.geometry import W_EPSILON, clip_coords

from oracles import (
    box_line_split,
    chart_members,
    obj_line_loop,
    one_conservative_bbox,
    per_triangle_stretch_report,
    triangle_corners,
)

QUAD_OBJ = """\
v -2 -2 -2
v  2 -2 -2
v  2  2 -2
v -2  2 -2
f 1 2 3 4
"""

TWO_QUADS_OBJ = """\
v -1.8 -0.4 -2
v -0.4 -0.4 -2
v -0.4  0.4 -2
v -1.8  0.4 -2
v  0.4 -0.4 -2
v  1.8 -0.4 -2
v  1.8  0.4 -2
v  0.4  0.4 -2
f 1 2 3 4
f 5 6 7 8
"""

# A quad from in front of the camera to behind it, far wider than the view.
ACROSS_OBJ = """\
v -5 -0.5 -2
v  5 -0.5 -2
v  5  0.5  1
v -5  0.5  1
f 1 2 3 4
"""


def write_scene(tmp_path, obj_text, **overrides):
    (tmp_path / "scene.obj").write_text(obj_text)
    cfg = {
        "mesh": "scene.obj",
        "fov_y": "90",
        "near": "0.1",
        "far": "100",
        "position": "0 0 0",
        "look_at": "0 0 -1",
        "up": "0 1 0",
        "screen": "128 128",
        "omega": "256",
    }
    cfg.update(overrides)
    text = "\n".join(f"{k} {v}" for k, v in cfg.items()) + "\n"
    path = tmp_path / "scene.cfg"
    path.write_text(text)
    return path


# Out-of-range --min-dim and --padding values, with the error's expected start.
BAD_PACK_FLAGS = [
    (["--omega", "64", "--padding", "5000000000000000000"], "error: --padding: "),
    (["--omega", "64", "--padding", "-3"], "error: --padding: "),
    (["--omega", "64", "--min-dim", "99999999999999999999"], "error: --min-dim: "),
    (["--omega", "64", "--min-dim", "0"], "error: --min-dim: "),
]
BAD_PACK_FLAG_IDS = ["padding_above_bound", "padding_negative", "min_dim_above_bound",
                     "min_dim_zero"]


def patches_obj(rng, n_patches):
    """Bumpy, randomly turned patches of 2*k*k triangles; some reach behind the camera."""
    lines, base = [], 1
    for i in range(n_patches):
        k = int(rng.integers(1, 4))
        half = rng.uniform(0.1, 1.5, size=2)
        u, v = np.meshgrid(np.linspace(-1, 1, k + 1), np.linspace(-1, 1, k + 1))
        pts = np.column_stack([u.ravel() * half[0], v.ravel() * half[1],
                               rng.uniform(-0.1, 0.1, size=u.size)])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if i % 4 == 0:  # near the camera and tilted: crosses the near plane
            center = [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), -0.4]
            pts[:, 2] += u.ravel() * 1.5
        else:
            center = [rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(-8, -1)]
        for x, y, z in pts @ q.T + center:
            lines.append(f"v {x:.9f} {y:.9f} {z:.9f}")
        for r in range(k):
            for c in range(k):
                a = base + r * (k + 1) + c
                lines.append(f"f {a} {a + 1} {a + k + 2}")
                lines.append(f"f {a} {a + k + 2} {a + k + 1}")
        base += (k + 1) ** 2
    return "\n".join(lines) + "\n"


def fail_if_called(*args, **kwargs):
    raise AssertionError("the depth pass ran before the input was checked")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestBoxFiles:
    def test_roundtrip(self, tmp_path, rng):
        boxes = generate_boxes(17, 128, rng)
        path = tmp_path / "boxes.txt"
        write_box_file(boxes, path)
        assert np.array_equal(parse_box_file(path), box_table(boxes))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 1 4\n", "1: expected 4 fields, got 3"),
            ("1 1 4 x\n", "1: fields must be unsigned integers"),
            ("1 -1 4 4\n", "1: ids must be non-negative"),
            ("9223372036854775808 1 4 4\n", "1: ids must be below 2^63"),
            ("1 99999999999999999999 4 4\n", "1: ids must be below 2^63"),
            ("1 1 4 8388609\n",
             "1: box dimensions must be in [1, 8388608] (chart 1: 4x8388609)"),
            ("1 1 4 4\n1 2 5 5\n", "2: duplicate chart_id 1"),
            ("1 1 4 4\n2 1 5 5\n", "2: duplicate min_tri 1"),
            ("# c\n1 1 4 4\n\n2 2 5 5 # c\n3 3 0 5\n4 4 1\n",
             "5: box dimensions must be in [1, 8388608] (chart 3: 0x5)"),
            ("1 1 4 4\n1 1 4\n", "2: expected 4 fields, got 3"),
            ("1 1 4 4\n2 2 4 4.0\n2 2 4 4\n", "2: fields must be unsigned integers"),
            ("1 1 0 4\n2 2 x 4\n", "1: box dimensions must be in [1, 8388608] (chart 1: 0x4)"),
            ("1 1 4 4\n1 1 5 5\n", "2: duplicate chart_id 1"),
            ("-99999999999999999999 1 4 4\n", "1: ids must be non-negative"),
        ],
        ids=["field_count", "non_integer", "negative_id", "chart_id_past_int64",
             "min_tri_past_int64", "side_above_max_dim", "duplicate_chart_id",
             "duplicate_min_tri", "bad_line_after_good", "field_count_after_good",
             "non_integer_before_duplicate", "bad_side_before_non_integer",
             "duplicate_chart_id_before_min_tri", "negative_past_int64"],
    )
    def test_malformed_message_is_pinned(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            parse_box_file(path)
        assert str(info.value) == f"{path}:{message}"

    def test_largest_ids_accepted(self, tmp_path):
        top = (1 << 63) - 1
        path = tmp_path / "top.txt"
        path.write_text(f"{top} {top - 1} 4 4\n{top - 1} {top} 5 5\n")
        assert parse_box_file(path).tolist() == [[top, top - 1, 4, 4], [top - 1, top, 5, 5]]

    def test_zero_width_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n1 1 4 4\n2 2 0 5\n")
        with pytest.raises(InputError, match=r"bad.txt:3"):
            parse_box_file(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("1 1 4 4\n1 2 5 5\n")
        with pytest.raises(InputError, match="duplicate chart_id"):
            parse_box_file(path)


class TestLayoutFiles:
    def test_roundtrip_losslessly(self, tmp_path, rng):
        layout = pack(generate_boxes(23, 128, rng), 128)
        path = tmp_path / "out.layout.txt"
        write_layout_file(layout, path)
        parsed = parse_layout_file(path)
        assert layouts_equal(parsed, layout)
        assert parsed.scale == layout.scale

    def test_digest_detects_tampering(self, tmp_path, rng):
        layout = pack(generate_boxes(5, 64, rng), 64)
        path = tmp_path / "out.layout.txt"
        write_layout_file(layout, path)
        lines = path.read_text().splitlines()
        swapped = [
            line.replace(" 0 0 ", " 1 0 ", 1) if line[0].isdigit() else line for line in lines
        ]
        path.write_text("\n".join(swapped) + "\n")
        if swapped != lines:
            with pytest.raises(InputError, match="digest mismatch"):
                parse_layout_file(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0 0 0 8 8 0 8 8\n1 0 0 8 8 0 8", "5: expected 8 placement fields"),
            ("0 0 0 8 8 0 8 x\n1 0 0 8", "4: placement fields must be integers"),
            ("-99999999999999999999 0 0 8 8 0 8 8\n1 0 0 8 8 0 8 x",
             "4: placement field outside the int64 range"),
            ("99999999999999999999 x 0 8 8 0 8 8", "4: placement fields must be integers"),
            ("0 0 0 8 8 0 8 8\nomega 64\n1 0 0 8 8 0 8", "6: expected 8 placement fields"),
        ],
        ids=["field_count", "non_integer", "past_int64", "past_int64_before_non_integer",
             "after_header_line"],
    )
    def test_first_bad_placement_names_its_line(self, tmp_path, rows, message):
        path = tmp_path / "bad.layout.txt"
        path.write_text(f"omega 64\nscale 1/1\ncount 2\n{rows}\n")
        with pytest.raises(InputError) as exc:
            parse_layout_file(path)
        assert str(exc.value) == f"{path}:{message}"

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.layout.txt"
        path.write_text("omega 64\nscale 1/1\ncount 2\n0 0 0 8 8 0 8 8\n")
        with pytest.raises(InputError, match="count"):
            parse_layout_file(path)

    @pytest.mark.parametrize(
        "header, placement",
        [
            ("omega abc\nscale 1/1", "0 0 0 8 8 0 8 8"),
            ("omega 64\nscale 1/0", "0 0 0 8 8 0 8 8"),
            ("omega 100\nscale 1/1", "0 0 0 8 8 0 8 8"),
            ("omega 131072\nscale 1/1", "0 0 0 8 8 0 8 8"),
            ("omega 100\nscale 1/1", "0 0 0 500 8 0 500 8"),
            ("omega 64\nscale 1/1", "0 60 0 8 8 0 8 8"),
            ("omega 64\nscale 1/1", "0 -1 0 8 8 0 8 8"),
            ("omega 64\nscale 1/1", "0 0 0 0 8 0 0 8"),
            ("omega 64\nscale 1/1\ndigest 0", "9223372036854775808 0 0 8 8 0 8 8"),
            ("omega 64\nscale 1/1\ndigest 0", "0 0 0 8 8 0 8 99999999999999999999"),
            ("omega 64\nscale 1/99999999999999999999\ndigest 0", "0 0 0 8 8 0 8 8"),
        ],
        ids=["omega_not_int", "scale_zero_den", "omega_not_pow2", "omega_too_big",
             "wider_than_atlas", "past_right_edge", "negative_x", "zero_width",
             "chart_id_past_int64", "target_past_int64", "scale_past_int64"],
    )
    def test_invalid_layout_names_the_file(self, tmp_path, header, placement):
        path = tmp_path / "bad.layout.txt"
        path.write_text(f"{header}\ncount 1\n{placement}\n")
        with pytest.raises(InputError, match="bad.layout.txt"):
            parse_layout_file(path)


class TestPackBoxesCommand:
    def test_four_half_boxes(self, tmp_path, capsys):
        path = tmp_path / "boxes.txt"
        path.write_text("".join(f"{i} {i} 128 128\n" for i in range(4)))
        code = main(["pack-boxes", str(path), "--omega", "256", "--svg"])
        assert code == EXIT_OK
        layout = parse_layout_file(tmp_path / "boxes.layout.txt")
        assert layout.scale == Fraction(1)
        rows = read_csv(tmp_path / "boxes.metrics.csv")
        assert float(rows[0]["efficiency"]) == 1.0
        svg = ET.parse(tmp_path / "boxes.atlas.svg").getroot()
        assert svg.tag.endswith("svg")
        assert len(list(svg)) == 1 + 4  # background + one rect per box

    def test_empty_file_is_empty_layout(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        assert main(["pack-boxes", str(path), "--omega", "64"]) == EXIT_OK
        layout = parse_layout_file(tmp_path / "empty.layout.txt")
        assert layout.placements == ()
        assert layout.scale == Fraction(1)

    def test_zero_width_box_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 4\n")
        assert main(["pack-boxes", str(path), "--omega", "64"]) == EXIT_BAD_INPUT
        assert "bad.txt:1" in capsys.readouterr().err

    def test_box_above_max_dim_exits_1(self, tmp_path, capsys):
        path = tmp_path / "tall.txt"
        path.write_text("0 0 1 99999999999\n")
        assert main(["pack-boxes", str(path), "--omega", "64"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "tall.txt:1" in err
        assert "Traceback" not in err

    def test_chart_id_past_int64_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("0 0 3 4\n99999999999999999999 1 2 2\n")
        assert main(["pack-boxes", str(path), "--omega", "64"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "huge.txt:2: ids must be below 2^63" in err
        assert "Traceback" not in err

    def test_unpackable_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("0 0 999999 999999\n")
        assert main(["pack-boxes", str(path), "--omega", "64"]) == EXIT_PACK_FAILURE

    @pytest.mark.parametrize(
        "flags, start",
        [
            (["--omega", "1000"], "error: "),
            (["--omega", "131072"], "error: "),
            (["--omega", "64", "--scales", "0"], "error: --scales: "),
            (["--omega", "64", "--packer", "superblock", "--block-size", "3"], "error: "),
            *BAD_PACK_FLAGS,
        ],
        ids=["omega", "omega_above_bound", "scales", "block_size", *BAD_PACK_FLAG_IDS],
    )
    def test_bad_flag_exits_1(self, tmp_path, capsys, flags, start):
        path = tmp_path / "boxes.txt"
        path.write_text("0 0 4 4\n")
        assert main(["pack-boxes", str(path), *flags]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(start)
        assert "Traceback" not in err

    def test_identical_runs_identical_outputs(self, tmp_path, rng):
        path = tmp_path / "boxes.txt"
        write_box_file(generate_boxes(30, 256, rng), path)
        main(["pack-boxes", str(path), "--omega", "256", "--out", str(tmp_path / "a")])
        main(["pack-boxes", str(path), "--omega", "256", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.layout.txt").read_text() == (tmp_path / "b.layout.txt").read_text()
        assert (tmp_path / "a.metrics.csv").read_text() == (tmp_path / "b.metrics.csv").read_text()


class TestAtlasSceneCommand:
    def test_full_screen_quad(self, tmp_path, capsys):
        scene = write_scene(tmp_path, QUAD_OBJ)
        code = main(["atlas-scene", str(scene), "--svg"])
        assert code == EXIT_OK
        layout = parse_layout_file(tmp_path / "scene.layout.txt")
        assert len(layout.placements) == 1
        p = layout.placements[0]
        assert 120 <= p.w <= 130 and 120 <= p.h <= 130  # about the screen size
        rows = read_csv(tmp_path / "scene.metrics.csv")
        assert rows[0]["n_charts"] == "1"
        assert float(rows[0]["l2_stretch"]) == pytest.approx(1.0, abs=0.02)
        charts_text = (tmp_path / "scene.charts.txt").read_text()
        assert "t 0 0" in charts_text and "v 0 0" in charts_text

    def test_small_atlas_forces_undersampling(self, tmp_path):
        scene = write_scene(tmp_path, QUAD_OBJ)
        assert main(["atlas-scene", str(scene), "--omega", "64"]) == EXIT_OK
        rows = read_csv(tmp_path / "scene.metrics.csv")
        # stretch approximately screen / omega = 128 / 64
        assert float(rows[0]["l2_stretch"]) == pytest.approx(2.0, abs=0.1)

    def test_two_disjoint_objects_two_charts(self, tmp_path):
        scene = write_scene(tmp_path, TWO_QUADS_OBJ)
        assert main(["atlas-scene", str(scene)]) == EXIT_OK
        rows = read_csv(tmp_path / "scene.metrics.csv")
        assert rows[0]["n_charts"] == "2"
        layout = parse_layout_file(tmp_path / "scene.layout.txt")
        assert len(layout.placements) == 2

    def test_one_projection_and_one_clip_per_frame(self, tmp_path, monkeypatch):
        # clip_coords and clip_halfspace are counted under every name a
        # package module resolves them by, so a projection or a clip
        # anywhere in the run shows. The one projection takes the mesh's
        # vertices, not its triangles' corners, every clip step is called by
        # the set-up's _clip_groups, and _clip_groups receives only the
        # triangles that leave the frustum.
        calls = {"clip_coords": 0, "_clip_groups": 0}
        received = []
        clippers = Counter()

        def counting(name, fn):
            def count(*args, **kwargs):
                calls[name] += 1
                received.append(args[0])
                return fn(*args, **kwargs)

            return count

        batches = []

        def halfspace(*args):
            caller = sys._getframe(1)
            clippers[f"{caller.f_globals['__name__']}.{caller.f_code.co_name}"] += 1
            batches.append(len(args[0]))
            return clip_halfspace(*args)

        project, clip_groups = atlaspack.geometry.clip_coords, atlaspack.charts._clip_groups
        clip_halfspace = atlaspack.geometry.clip_halfspace
        for module in (atlaspack.cli, atlaspack.charts, atlaspack.geometry):
            if hasattr(module, "clip_coords"):
                monkeypatch.setattr(module, "clip_coords", counting("clip_coords", project))
            if hasattr(module, "clip_halfspace"):
                monkeypatch.setattr(module, "clip_halfspace", halfspace)
        monkeypatch.setattr(atlaspack.charts, "_clip_groups", counting("_clip_groups", clip_groups))
        scene = write_scene(tmp_path, TWO_QUADS_OBJ)
        assert main(["atlas-scene", str(scene)]) == EXIT_OK
        assert calls == {"clip_coords": 1, "_clip_groups": 0}  # every triangle lies inside
        assert np.shape(received[0]) == (8, 3) and not clippers
        # A quad across the side planes, the near plane and the camera plane,
        # and a triangle inside the frustum.
        inside = "v -0.5 -0.5 -3\nv 0.5 -0.5 -3\nv 0 0.5 -3\nf 5 6 7\n"
        scene = write_scene(tmp_path, ACROSS_OBJ + inside, backface_cull="0")
        assert main(["atlas-scene", str(scene)]) == EXIT_OK
        assert calls == {"clip_coords": 2, "_clip_groups": 1}
        vclip = project(received[1], parse_scene_config(scene).camera())
        assert received[2].tobytes() == vclip[[[0, 1, 2], [0, 2, 3]]].tobytes()
        assert list(clippers) == ["atlaspack.charts._clip_groups"] and clippers.total() >= 4
        assert min(batches) >= 1  # no clip step is called on an empty batch

    def test_superblock_texels_ignore_padding(self, tmp_path):
        scene = write_scene(tmp_path, TWO_QUADS_OBJ)
        texels = []
        for padding in ("0", "2"):
            out = tmp_path / f"pad{padding}"
            argv = ["atlas-scene", str(scene), "--packer", "superblock", "--padding", padding,
                    "--out", str(out)]
            assert main(argv) == EXIT_OK
            texels.append(read_csv(tmp_path / f"pad{padding}.metrics.csv")[0]["texels_allocated"])
        assert texels[0] == texels[1]

    def test_camera_facing_away_exits_3(self, tmp_path, capsys):
        scene = write_scene(tmp_path, QUAD_OBJ, look_at="0 0 1")
        assert main(["atlas-scene", str(scene)]) == EXIT_NOTHING_VISIBLE

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        scene = write_scene(tmp_path, QUAD_OBJ, wibble="3")
        assert main(["atlas-scene", str(scene)]) == EXIT_BAD_INPUT

    def test_omega_above_bound_exits_1(self, tmp_path, capsys):
        scene = write_scene(tmp_path, QUAD_OBJ, omega="131072")
        assert main(["atlas-scene", str(scene)]) == EXIT_BAD_INPUT
        assert "65536" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--omega", "1000"], "--omega"),
            (["--scales", "0"], "--scales"),
            (["--min-dim", "0"], "--min-dim"),
            (["--padding", "-1"], "--padding"),
            (["--padding", "5000000000000000000"], "--padding"),
            (["--prescale", "0"], "--prescale"),
            (["--prescale", "nan"], "--prescale"),
            (["--res", "16385x8"], "--res"),
            (["--res", "8x0"], "--res"),
            (["--res", "8192x4097"], "--res"),
        ],
        ids=["omega", "scales", "min_dim", "padding", "padding_above_bound", "prescale_zero",
             "prescale_nan", "res_above_bound", "res_zero", "res_too_many_pixels"],
    )
    def test_bad_override_exits_1_before_raster(self, tmp_path, capsys, monkeypatch, flags, named):
        monkeypatch.setattr("atlaspack.cli.depth_prepass", fail_if_called)
        scene = write_scene(tmp_path, QUAD_OBJ)
        assert main(["atlas-scene", str(scene), *flags]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: ")
        assert "Traceback" not in err

    def test_screen_above_bound_in_file_exits_1_before_raster(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("atlaspack.cli.depth_prepass", fail_if_called)
        scene = write_scene(tmp_path, QUAD_OBJ, screen="8 16385")
        assert main(["atlas-scene", str(scene)]) == EXIT_BAD_INPUT
        assert "scene.cfg: screen sides must be in [1, 16384]" in capsys.readouterr().err

    def test_screen_over_pixel_limit_in_file_exits_1_before_raster(
        self, tmp_path, capsys, monkeypatch
    ):
        # 7680x4320 is within MAX_SCREEN_PIXELS; one row more than 2^25
        # pixels is not. Neither is rasterized.
        monkeypatch.setattr("atlaspack.cli.depth_prepass", fail_if_called)
        assert 7680 * 4320 <= MAX_SCREEN_PIXELS < 8192 * 4097
        assert scene_config_problem(SceneConfig(Path(), screen=(7680, 4320))) is None
        scene = write_scene(tmp_path, QUAD_OBJ, screen="8192 4097")
        assert main(["atlas-scene", str(scene)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "scene.cfg: screen must have at most 33554432 pixels" in err
        assert "Traceback" not in err

    def test_max_screen_rasterizes_one_band_at_a_time(self, tmp_path):
        # Three small triangles in every band of a 16384x2048 screen,
        # MAX_SCREEN_PIXELS in all. The raster holds one band of depth at a
        # time, 2 MiB, where a whole-screen buffer would take 256 MiB.
        width, height = 16384, 2048
        assert width * height == MAX_SCREEN_PIXELS
        lines, n = [], 0
        for top in range(0, height, charts._BAND // width):
            for x, y in ((100, top + 5), (width // 2, top + 5), (width - 100, top + 5)):
                for px, py in ((x, y), (x + 4, y), (x, y + 4)):
                    # fov 90 at aspect 8: the plane z = -1 spans x in [-8, 8].
                    lines.append(f"v {8 * (2 * px / width - 1)!r} {2 * py / height - 1!r} -1")
                lines.append(f"f {n + 1} {n + 2} {n + 3}")
                n += 3
        scene = write_scene(tmp_path, "\n".join(lines) + "\n", screen=f"{width} {height}")
        cfg = parse_scene_config(scene)
        tracemalloc.start()
        try:
            frame = frame_charts(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        start = time.perf_counter()
        frame_charts(cfg)
        elapsed = time.perf_counter() - start
        assert frame.n_visible == n // 3 == 3 * len(screen_bands(cfg.screen))
        assert frame.screen_fragments == 10 * frame.n_visible  # 4 + 3 + 2 + 1 samples each
        assert peak < 8 * charts._BAND + 750_000, peak  # about 2.6 MB
        assert elapsed < 1.0, elapsed  # about 0.1 s

    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB for an array")

        monkeypatch.setattr("atlaspack.cli.depth_prepass", no_memory)
        scene = write_scene(tmp_path, QUAD_OBJ)
        assert main(["atlas-scene", str(scene)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 2.00 GiB for an array\n"

    def test_box_taller_than_packer_capacity_exits_2(self, tmp_path, capsys):
        scene = write_scene(tmp_path, QUAD_OBJ)
        assert main(["atlas-scene", str(scene), "--prescale", "1e9"]) == EXIT_PACK_FAILURE
        assert "Traceback" not in capsys.readouterr().err

    def test_box_side_past_int64_exits_2(self, tmp_path, capsys):
        scene = write_scene(tmp_path, QUAD_OBJ)
        assert main(["atlas-scene", str(scene), "--prescale", "1e300"]) == EXIT_PACK_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("pack failure: box height ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("prescale", ["1e300", "1e308"])
    @pytest.mark.parametrize("given_as", ["flag", "scene_key"])
    def test_box_side_past_float_range_exits_2(self, tmp_path, capsys, prescale, given_as):
        # 1e308 times the chart's pixel extent overflows to inf.
        if given_as == "flag":
            argv = [str(write_scene(tmp_path, QUAD_OBJ)), "--prescale", prescale]
        else:
            argv = [str(write_scene(tmp_path, QUAD_OBJ, prescale=prescale))]
        assert main(["atlas-scene", *argv]) == EXIT_PACK_FAILURE
        err = capsys.readouterr().err
        assert "exceeds capacity" in err and "Traceback" not in err
        assert len(err) < 120

    @pytest.mark.parametrize(
        "bad_line",
        ["v 0 0 nan", "v 0 1 abc", "f 0 2 3", "f 1 2 x", "f 1 2 9", "f 1 2 -9"],
        ids=["nan_coordinate", "non_numeric_coordinate", "zero_index", "non_numeric_index",
             "index_past_end", "relative_index_past_start"],
    )
    def test_malformed_obj_names_file_and_line(self, tmp_path, capsys, bad_line):
        lines = QUAD_OBJ.splitlines()
        lines.insert(4, bad_line)  # line 5, after the four vertices
        scene = write_scene(tmp_path, "\n".join(lines) + "\n")
        assert main(["atlas-scene", str(scene)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "scene.obj:5:" in err
        assert "Traceback" not in err


class TestWriteChartsFile:
    def test_used_vertices_only_in_vertex_order(self, tmp_path):
        # Triangles 0 and 2 share vertex 2, so they form chart 0; triangle 3
        # is chart 3. Vertex 5 belongs only to the hidden triangle 1, and
        # vertex 9 to no triangle: neither is listed.
        mesh = Mesh(
            positions=np.zeros((10, 3)), triangles=[(6, 2, 1), (5, 4, 3), (3, 2, 4), (8, 0, 7)]
        )
        vis = VisibilityBuffer(flags=[True, False, True, True])
        cs = merge_shared_vertices(connected_charts(mesh, vis), mesh)
        write_charts_file(cs, tmp_path / "scene.charts.txt")
        lines = (tmp_path / "scene.charts.txt").read_text().splitlines()
        assert lines[2:] == [
            "t 0 0", "t 2 0", "t 3 3",
            "v 0 3", "v 1 0", "v 2 0", "v 3 0", "v 4 0", "v 6 0", "v 7 3", "v 8 3",
        ]


class TestCompareCommand:
    def test_rows_per_packer_and_omega(self, tmp_path, rng):
        path = tmp_path / "boxes.txt"
        write_box_file(generate_boxes(25, 256, rng), path)
        out = tmp_path / "cmp.csv"
        code = main(["compare", str(path), "--omega", "128,256", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 6  # 3 packers x 2 omegas
        ok_rows = [r for r in rows if r["status"] == "ok"]
        assert ok_rows, "at least one packer must succeed"
        sb = [r for r in rows if r["packer"] == "superblock" and r["status"] == "ok"]
        for r in sb:
            assert r["block_size"] != ""

    def test_deterministic_except_wall_time(self, tmp_path, rng):
        path = tmp_path / "boxes.txt"
        write_box_file(generate_boxes(25, 256, rng), path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["compare", str(path), "--omega", "256", "--out", str(a)])
        main(["compare", str(path), "--omega", "256", "--out", str(b)])

        def strip_wall(p):
            rows = read_csv(p)
            for r in rows:
                r["wall_ms"] = ""
            return rows

        assert strip_wall(a) == strip_wall(b)

    def test_bad_omega_exits_1(self, tmp_path, capsys):
        path = tmp_path / "boxes.txt"
        path.write_text("0 0 4 4\n")
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(path), "--omega", "1000", "--out", str(out)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "flags, start",
        [(["--omega", "abc"], "error: --omega: "), *BAD_PACK_FLAGS],
        ids=["omega_not_int", *BAD_PACK_FLAG_IDS],
    )
    @pytest.mark.parametrize("input_kind", ["boxes", "scene"])
    def test_bad_flag_exits_1(self, tmp_path, capsys, monkeypatch, flags, start, input_kind):
        monkeypatch.setattr("atlaspack.cli.depth_prepass", fail_if_called)
        if input_kind == "boxes":
            path = tmp_path / "boxes.txt"
            path.write_text("0 0 4 4\n")
        else:
            path = write_scene(tmp_path, QUAD_OBJ)
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(path), *flags, "--out", str(out)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(start)
        assert "Traceback" not in err

    def test_superblock_row_ignores_padding(self, tmp_path, rng):
        path = tmp_path / "boxes.txt"
        write_box_file(generate_boxes(60, 256, rng), path)
        rows = []
        for padding in ("0", "1"):
            out = tmp_path / f"cmp{padding}.csv"
            argv = ["compare", str(path), "--omega", "256", "--packer", "superblock",
                    "--padding", padding, "--out", str(out)]
            assert main(argv) == EXIT_OK
            (row,) = read_csv(out)
            row.pop("wall_ms")
            rows.append(row)
        assert rows[0]["status"] == "ok"
        assert rows[0] == rows[1]

    def test_box_above_max_dim_exits_1(self, tmp_path, capsys):
        path = tmp_path / "tall.txt"
        path.write_text("0 0 1 99999999999\n")
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(path), "--omega", "64", "--out", str(out)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "tall.txt:1" in err
        assert "Traceback" not in err

    def test_bad_scene_omega_exits_1_before_raster(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("atlaspack.cli.depth_prepass", fail_if_called)
        scene = write_scene(tmp_path, QUAD_OBJ)
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(scene), "--omega", "1000", "--out", str(out)]) == EXIT_BAD_INPUT
        assert "power of two" in capsys.readouterr().err

    def test_scene_frame_work_runs_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return depth_prepass(*args, **kwargs)

        monkeypatch.setattr("atlaspack.cli.depth_prepass", counting)
        scene = write_scene(tmp_path, TWO_QUADS_OBJ)
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(scene), "--omega", "1024,2048", "--out", str(out)]) == EXIT_OK
        assert len(read_csv(out)) == 6  # 3 packers x 2 omegas
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "data",
        [
            b"# boxes\n# chart_id min_tri w h\n0 0 4 4\n",
            b"#" * 20000 + b"\r\n0 0 4 4\r\n",
            b"\n\n \t\n0 0 4 4\n",
            b"0 0 4 4\r1 1 2 2\r",
            b"\r\r# scene\rmesh m.obj\r",
            b"0 0 4 4\n1 1 \xff 2\n",
            b"mesh m.obj\n\xff\n",
            b"0 0 4 \xff\n",
            b"0 0 4\xc2\x854\n",  # U+0085 splits tokens but does not end the line
            b"0 0 4\xe2\x80\xa84\n",  # so does U+2028
            b"0 0 4 \xd9\xa4\n",  # an Arabic-Indic digit
            b"0 0 4\x0c4\n",
            b"0 0 4\n",
            b"",
            b"\n# only comments\n",
        ],
        ids=["comments", "long_comment_crlf", "blank_lines", "cr_only", "scene_cr_only",
             "bad_byte_after_boxes", "bad_byte_after_scene", "bad_byte_in_record", "nel",
             "line_separator", "unicode_digit", "form_feed", "three_fields", "empty",
             "no_record"],
    )
    def test_input_kind_comes_from_the_first_record(self, tmp_path, data):
        # The first record decides as it would read out of the whole file.
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        tokens, _, counts = records(data)
        whole = len(counts) > 0 and not (counts[0] == 4 and all(t.isdigit() for t in tokens[:4]))
        assert _looks_like_scene(path) == whole

    def test_sniff_reads_up_to_the_first_record(self, tmp_path, monkeypatch):
        path = tmp_path / "boxes.txt"
        path.write_bytes(b"# chart_id min_tri w h\n\n0 0 4 4\n" + b"1 1 2 2\n" * 50_000)
        read = []

        def reading(data):
            read.append(data)
            return records(data)

        monkeypatch.setattr(atlaspack.cli, "records", reading)
        assert not _looks_like_scene(path)
        assert b"".join(read) == b"# chart_id min_tri w h\n\n0 0 4 4\n"

    def test_scene_with_nothing_visible_fails_every_row(self, tmp_path, capsys):
        scene = write_scene(tmp_path, QUAD_OBJ, look_at="0 0 1")
        out = tmp_path / "cmp.csv"
        argv = ["compare", str(scene), "--omega", "64,128", "--out", str(out)]
        assert main(argv) == EXIT_PACK_FAILURE
        assert [r["status"] for r in read_csv(out)] == ["failed"] * 6
        assert capsys.readouterr().err.count("no triangle covers a depth-passing sample") == 6

    def test_scene_rows_use_atlas_scene_settings(self, tmp_path):
        # Each compare row packs as atlas-scene does with the same packer:
        # with the scene's keys, and a flag given to both replaces its key
        # in both.
        scene = write_scene(tmp_path, TWO_QUADS_OBJ, screen="256 256", omega="64", scales="8",
                            min_dim="2", padding="3")
        columns = ("scale", "efficiency", "l2_stretch", "linf_stretch")

        def rows(*flags):
            out = tmp_path / "cmp.csv"
            argv = ["compare", str(scene), "--packer", ",".join(PACKER_NAMES), "--omega", "64",
                    *flags, "--out", str(out)]
            assert main(argv) == EXIT_OK
            got = [[float(row[c]) for c in columns] for row in read_csv(out)]
            for name, row in zip(PACKER_NAMES, got):
                prefix = tmp_path / name
                argv = ["atlas-scene", str(scene), "--packer", name, *flags, "--out", str(prefix)]
                assert main(argv) == EXIT_OK
                (metrics,) = read_csv(f"{prefix}.metrics.csv")
                assert row == [float(metrics[c]) for c in columns], name
            return got

        own = rows()
        flagged = rows("--scales", "64", "--min-dim", "1", "--padding", "0")
        assert own[0] != flagged[0]  # the flags change the fastatlas pack

    def test_scene_rows_take_the_block_size_flag(self, tmp_path):
        # A scene's boxes pack as the same boxes read from a box file do.
        scene = write_scene(tmp_path, TWO_QUADS_OBJ, screen="256 256")
        boxes = tmp_path / "boxes.txt"
        table = run_scene_pipeline(parse_scene_config(scene)).boxes
        boxes.write_text("".join("%d %d %d %d\n" % tuple(row) for row in table.tolist()))
        rows = []
        for path in (scene, boxes):
            out = tmp_path / "cmp.csv"
            argv = ["compare", str(path), "--packer", "superblock", "--omega", "2048",
                    "--block-size", "16", "--out", str(out)]
            assert main(argv) == EXIT_OK
            (row,) = read_csv(out)
            rows.append(row)
        assert [r["block_size"] for r in rows] == ["16", "16"]
        for column in ("status", "n_boxes", "scale", "efficiency"):
            assert rows[0][column] == rows[1][column], column

    def test_scene_input(self, tmp_path):
        scene = write_scene(tmp_path, TWO_QUADS_OBJ)
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", str(scene), "--omega", "256", "--packer", "fastatlas,sequential",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert {r["packer"] for r in rows} == {"fastatlas", "sequential"}
        for r in rows:
            assert r["status"] == "ok"
            assert float(r["l2_stretch"]) == pytest.approx(1.0, abs=0.05)


class TestStretchReport:
    def test_matches_per_triangle_reference_on_random_scenes(self, tmp_path):
        seen = {"rotated": 0, "padded": 0, "prescaled": 0, "scale_below_1": 0, "near": 0}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            mesh_path = tmp_path / f"s{seed}.obj"
            mesh_path.write_text(patches_obj(rng, int(rng.integers(3, 12))))
            cfg = SceneConfig(
                mesh_path=mesh_path,
                fov_y_deg=float(rng.uniform(50, 90)),
                screen=(160, 120),
                omega=int(rng.choice([64, 128, 256])),
                padding=int(rng.integers(0, 3)),
                prescale=float(rng.choice([1.0, 1.7, 0.6])),
                backface_cull=bool(seed % 2),
            )
            try:
                result = run_scene_pipeline(cfg)
            except (NothingVisible, PackFailure):
                continue
            cam, charts = cfg.camera(), chart_members(result.chart_set)
            boxed = result.boxes[:, 0].tolist()
            chart_px = dict(zip(boxed, map(tuple, result.chart_px.tolist())))
            chart_ndc = {c: one_conservative_bbox(triangle_corners(result.mesh)[charts[c]], cam)
                         for c in boxed}
            want = per_triangle_stretch_report(
                cfg, result.mesh, cam, charts, result.layout, chart_ndc, chart_px
            )
            got = result.stretch
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert got.l2 == pytest.approx(want.l2, rel=1e-9)
            assert got.linf == pytest.approx(want.linf, rel=1e-9)
            clip = clip_coords(triangle_corners(result.mesh), cam)
            placed = [p.chart_id for p in result.layout.placements]
            seen["rotated"] += any(p.rotated for p in result.layout.placements)
            seen["padded"] += cfg.padding > 0
            seen["prescaled"] += cfg.prescale != 1.0
            seen["scale_below_1"] += result.layout.scale < 1
            seen["near"] += any(
                np.any(clip[charts[c], :, 3] <= W_EPSILON) for c in placed
            )
        assert min(seen.values()) >= 3, seen

    def test_unscaled_scene_reads_exactly_one(self, tmp_path):
        scene = write_scene(tmp_path, TWO_QUADS_OBJ)
        assert main(["atlas-scene", str(scene)]) == EXIT_OK
        layout = parse_layout_file(tmp_path / "scene.layout.txt")
        assert layout.scale == 1
        row = read_csv(tmp_path / "scene.metrics.csv")[0]
        assert float(row["l2_stretch"]) == 1.0
        assert float(row["linf_stretch"]) == 1.0


class TestGenBoxesCommand:
    def test_seeded_generation_is_stable(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen-boxes", "--count", "40", "--omega", "512", "--seed", "7", "--out", str(a)])
        main(["gen-boxes", "--count", "40", "--omega", "512", "--seed", "7", "--out", str(b)])
        assert a.read_text() == b.read_text()
        boxes = parse_box_file(a)
        assert boxes.shape == (40, 4)
        assert ((boxes[:, 2:] >= 1) & (boxes[:, 2:] <= 512)).all()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--count", "-1"],
            ["--count", str(MAX_GEN_COUNT + 1)],
            ["--omega", "0"],
            ["--omega", "100"],
            ["--omega", "100000000000000000000"],
            ["--seed", "-1"],
        ],
        ids=["count_negative", "count_above_bound", "omega_zero", "omega_not_power_of_two",
             "omega_huge", "seed_negative"],
    )
    def test_bad_flag_exits_1_before_generating(self, tmp_path, capsys, monkeypatch, flags):
        def fail(*args):
            raise AssertionError("boxes were generated from a bad flag")

        monkeypatch.setattr("atlaspack.cli.generate_boxes", fail)
        out = tmp_path / "boxes.txt"
        argv = ["gen-boxes", "--count", "4", "--omega", "64", *flags, "--out", str(out)]
        assert main(argv) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[0]}: ")
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["atlas-scene", "pack-boxes", "compare", "compare-scene"])
def test_bad_omega_names_the_flag(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("atlaspack.cli.depth_prepass", fail_if_called)
    boxes = tmp_path / "boxes.txt"
    boxes.write_text("0 0 4 4\n")
    scene = write_scene(tmp_path, QUAD_OBJ)
    out = ["--out", str(tmp_path / "cmp.csv")]
    argv = {
        "atlas-scene": ["atlas-scene", str(scene)],
        "pack-boxes": ["pack-boxes", str(boxes)],
        "compare": ["compare", str(boxes), *out],
        "compare-scene": ["compare", str(scene), *out],
    }[command]
    assert main([*argv, "--omega", "3"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: --omega: omega must be a power of two")


@pytest.mark.parametrize("size", ["0", "3", "-4", "128", "16"])
@pytest.mark.parametrize("command", ["pack-boxes", "compare"])
def test_block_size_names_the_flag(tmp_path, capsys, command, size):
    # 0 is a block size like any other, not "no block size": it is not a
    # power of two, as 3 and -4 are not, and 128 exceeds omega 64.
    boxes = tmp_path / "boxes.txt"
    boxes.write_text("0 0 4 4\n1 1 8 8\n")
    out = tmp_path / "out.csv"
    argv = [command, str(boxes), "--omega", "64", "--packer", "superblock",
            f"--block-size={size}", "--out", str(out)]
    if size == "16":
        assert main(argv) == EXIT_OK
        if command == "compare":
            assert [r["block_size"] for r in read_csv(out)] == ["16"]
        return
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: --block-size: block_size must ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pack-boxes", "atlas-scene", "compare", "gen-boxes"])
def test_unwritable_output_exits_1(tmp_path, capsys, command):
    (tmp_path / "notadir").write_text("a file, not a directory\n")
    out = str(tmp_path / "notadir" / "x")
    boxes = tmp_path / "boxes.txt"
    boxes.write_text("0 0 4 4\n")
    argv = {
        "pack-boxes": ["pack-boxes", str(boxes), "--omega", "64", "--out", out],
        "atlas-scene": ["atlas-scene", str(write_scene(tmp_path, QUAD_OBJ)), "--out", out],
        "compare": ["compare", str(boxes), "--omega", "64", "--out", out],
        "gen-boxes": ["gen-boxes", "--count", "4", "--omega", "64", "--out", out],
    }[command]
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "notadir" in err
    assert "Traceback" not in err


class TestSceneConfig:
    def test_aspect_defaults_to_screen_ratio(self, tmp_path):
        scene = write_scene(tmp_path, QUAD_OBJ, screen="200 100")
        cfg = parse_scene_config(scene)
        assert cfg.camera().aspect == pytest.approx(2.0)

    def test_bad_omega_rejected(self, tmp_path):
        scene = write_scene(tmp_path, QUAD_OBJ, omega="100")
        with pytest.raises(InputError, match="power of two"):
            parse_scene_config(scene)

    @pytest.mark.parametrize(
        "key, value",
        [("screen", "16385 8"), ("screen", "8 0"), ("scales", "0"), ("min_dim", "0"),
         ("padding", "-1"), ("prescale", "-1")],
        ids=["screen_above_bound", "screen_zero", "scales", "min_dim", "padding", "prescale"],
    )
    def test_out_of_range_value_names_the_file(self, tmp_path, key, value):
        scene = write_scene(tmp_path, QUAD_OBJ, **{key: value})
        with pytest.raises(InputError, match=rf"scene\.cfg: {key}"):
            parse_scene_config(scene)


    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("fov_y", "abc", "2: could not convert string to float: 'abc'"),
            ("position", "0 0", "5: key 'position' expects 3 values"),
            ("mesh", "scene.obj extra", "1: key 'mesh' expects 1 values"),
            ("mesh", "scene\x00.obj", "1: embedded null byte"),
            ("backface_cull", "maybe", "10: expected one of 1, true, yes, on, 0, false, no, "
             "off, got 'maybe'"),
        ],
        ids=["not_a_number", "too_few_values", "mesh_extra_token", "mesh_null_byte",
             "switch_word"],
    )
    def test_bad_value_names_the_line(self, tmp_path, key, value, message):
        scene = write_scene(tmp_path, QUAD_OBJ, **{key: value})
        with pytest.raises(InputError) as exc:
            parse_scene_config(scene)
        assert str(exc.value) == f"{scene}:{message}"

    @pytest.mark.parametrize("word", ["1", "0", "true", "FALSE", "Yes", "no", "on", "OFF"])
    def test_backface_cull_words(self, tmp_path, word):
        scene = write_scene(tmp_path, QUAD_OBJ, backface_cull=word)
        want = word.lower() in ("1", "true", "yes", "on")
        assert parse_scene_config(scene).backface_cull is want

    @pytest.mark.parametrize(
        "values",
        [{"aspect": "nan"}, {"far": "inf"}, {"position": "nan 0 0"}, {"fov_y": "nan"},
         {"look_at": "0 0 0"}, {"fov_y": "180"}, {"fov_y": "-5"}, {"aspect": "0"},
         {"near": "0"}, {"near": "-inf"}, {"near": "100"}, {"up": "0 0 1"}, {"up": "0 nan 1"},
         {"position": "1e308 0 0", "look_at": "-1e308 0 0"}, {"fov_y": "1e-310"}],
        ids=["aspect_nan", "far_inf", "position_nan", "fov_y_nan", "look_at_on_position",
             "fov_y_180", "fov_y_negative", "aspect_zero", "near_zero", "near_minus_inf",
             "near_at_far", "up_along_view", "up_nan", "view_overflows", "projection_overflows"],
    )
    def test_bad_camera_exits_1_before_raster(self, tmp_path, capsys, monkeypatch, values):
        # The error names the first key of ``values``.
        key = next(iter(values))
        monkeypatch.setattr("atlaspack.cli.depth_prepass", fail_if_called)
        scene = write_scene(tmp_path, QUAD_OBJ, **values)
        assert main(["atlas-scene", str(scene)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scene}: {key}")
        assert "Traceback" not in err


    def test_res_that_overflows_the_projection_exits_1(self, tmp_path, capsys, monkeypatch):
        # A scene without an aspect takes the screen's, so --res can overflow
        # a projection that the scene's own screen keeps finite.
        monkeypatch.setattr("atlaspack.cli.depth_prepass", fail_if_called)
        scene = write_scene(tmp_path, QUAD_OBJ, fov_y="1e-303")
        parse_scene_config(scene)
        assert main(["atlas-scene", str(scene), "--res", "1x16384"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith(f"error: {scene}: fov_y")


class TestSvgOutput:
    """--svg draws the atlas: a background, then one rectangle per layout row."""

    @pytest.mark.parametrize("command", ["pack-boxes", "atlas-scene"])
    def test_one_rect_per_placement(self, tmp_path, rng, command):
        if command == "pack-boxes":
            path = tmp_path / "boxes.txt"
            write_box_file(generate_boxes(30, 256, rng), path)
            argv = ["pack-boxes", str(path), "--omega", "256", "--svg"]
        else:
            path = write_scene(tmp_path, TWO_QUADS_OBJ)
            argv = ["atlas-scene", str(path), "--svg"]
        assert main(argv) == EXIT_OK
        prefix = path.with_suffix("")
        layout = parse_layout_file(f"{prefix}.layout.txt")
        omega, table = layout.omega, layout.table
        svg = ET.parse(f"{prefix}.atlas.svg").getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert svg.tag == f"{ns}svg"
        assert svg.get("viewBox") == f"0 0 {omega} {omega}"
        assert [r.tag for r in svg] == [f"{ns}rect"] * (1 + len(table))
        sides = [[int(r.get(k)) for k in ("x", "y", "width", "height")] for r in svg]
        assert sides[0] == [0, 0, omega, omega]
        assert sides[1:] == table[:, 1:5].tolist()
        assert len(table) == (30 if command == "pack-boxes" else 2)


class TestNonUtf8Input:
    """A byte that is not UTF-8 exits 1 naming the file and its line, never a traceback."""

    def test_box_file(self, tmp_path, capsys):
        path = tmp_path / "boxes.txt"
        path.write_bytes(b"# chart_id min_tri w h\r\n1 1 4 4\r\n2 2 \xff 5\r\n")
        for argv in (["pack-boxes", str(path), "--omega", "64"],
                     ["compare", str(path), "--omega", "64", "--out", str(tmp_path / "c.csv")]):
            assert main(argv) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert f"{path}:3: not UTF-8 text (byte 0xff)" in err
            assert "Traceback" not in err

    def test_scene_file(self, tmp_path, capsys):
        scene = write_scene(tmp_path, QUAD_OBJ)
        lines = scene.read_bytes().split(b"\n")
        lines[3] += b" # \xff"
        scene.write_bytes(b"\r".join(lines))  # a lone CR ends a line too
        for argv in (["atlas-scene", str(scene)],
                     ["compare", str(scene), "--omega", "256", "--out", str(tmp_path / "c.csv")]):
            assert main(argv) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert f"{scene}:4: not UTF-8 text" in err
            assert "Traceback" not in err

    def test_layout_file(self, tmp_path):
        path = tmp_path / "bad.layout.txt"
        path.write_bytes(b"omega 64\nscale 1/1\ncount 1\n0 0 0 8 8 0 8 \xc3\n")
        with pytest.raises(InputError, match=r"bad.layout.txt:4: not UTF-8 text \(byte 0xc3\)"):
            parse_layout_file(path)

    def test_obj_file_keeps_number_message(self, tmp_path, capsys):
        scene = write_scene(tmp_path, QUAD_OBJ)
        obj = tmp_path / "scene.obj"
        obj.write_bytes(obj.read_bytes().replace(b"v  2  2 -2", b"v  2  2 -2\xff"))
        assert main(["atlas-scene", str(scene)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "scene.obj:3: vertex coordinates must be numbers" in err
        assert "Traceback" not in err


# Corners and outward triangles of a cube.
CUBE_CORNERS = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], float)
CUBE_TRIS = np.array([[0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5], [0, 4, 5], [0, 5, 1],
                      [2, 3, 7], [2, 7, 6], [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3]])


def grid_mesh(rng, n=40):
    """A bumpy n x n height field around the origin, as (positions, triangles)."""
    xs = np.linspace(-n / 2, n / 2, n + 1)
    gx, gz = np.meshgrid(xs, xs)
    positions = np.column_stack([gx.ravel(), rng.normal(0.0, 1.0, gx.size), gz.ravel()])
    idx = np.arange((n + 1) * (n + 1)).reshape(n + 1, n + 1)
    a, b = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()
    c, d = idx[1:, :-1].ravel(), idx[1:, 1:].ravel()
    return positions, np.concatenate([np.column_stack([a, c, b]), np.column_stack([b, c, d])])


def cubes_mesh(rng, count=60):
    """Scattered, turned cubes of mixed sizes, as (positions, triangles)."""
    positions = [CUBE_CORNERS * rng.uniform(0.25, 1.5) @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
                 + rng.uniform(-18, 18, size=3) for _ in range(count)]
    return np.concatenate(positions), np.concatenate([CUBE_TRIS + 8 * i for i in range(count)])


class TestWholeFileParsing:
    """Benchmark-shaped files read the same through the reader as through the line loops."""

    @pytest.mark.parametrize("make_mesh", [grid_mesh, cubes_mesh], ids=["grid", "cubes"])
    def test_obj_as_the_benchmark_writes_it(self, tmp_path, rng, make_mesh):
        positions, triangles = make_mesh(rng)
        lines = [f"v {x:.6f} {y:.6f} {z:.6f}" for x, y, z in positions]
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in triangles]
        path = tmp_path / "mesh.obj"
        for header in ("", "# exported\n"):
            path.write_text(header + "\n".join(lines) + "\n")
            expected = obj_line_loop(path)
            mesh = load_obj(path)
            assert mesh.positions.tobytes() == expected.positions.tobytes()
            assert mesh.triangles.tobytes() == expected.triangles.tobytes()
            assert np.array_equal(mesh.triangles, triangles)

    def test_layout_parse_holds_no_token_objects(self, tmp_path, rng):
        # A 3,000-row layout holds 24,000 numbers. Read from the file's
        # bytes, none becomes a Python object, and the parse peaks near
        # 1.3 MB of traced heap; holding a bytes object per token took it
        # to about 2 MB.
        path = tmp_path / "a.layout.txt"
        layout = pack(generate_boxes(3000, 2048, rng), 8192)
        write_layout_file(layout, path)
        parse_layout_file(path)  # one-time caches are not the parse's
        tracemalloc.start()
        try:
            parsed = parse_layout_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert layouts_equal(parsed, layout) and len(layout.table) == 3000
        assert peak < 1_500_000, peak

    def test_box_file_as_the_benchmark_writes_it(self, tmp_path, rng):
        path = tmp_path / "boxes.txt"
        write_box_file(generate_boxes(3000, 2048, rng), path)
        tokens, linenos, counts = box_line_split(path.read_text())
        got = records(path.read_bytes())
        assert [t.decode() for t in got[0]] == tokens
        assert (got[1].tolist(), got[2].tolist()) == (linenos, counts)
        expected = np.array([int(t) for t in tokens], dtype=np.int64).reshape(-1, 4)
        table = parse_box_file(path)
        assert table.dtype == expected.dtype
        assert table.tobytes() == expected.tobytes()


# Each subcommand's options as (option strings, or a positional's name,
# default). A flag given as None defaults to its scene key's value, or to
# the SceneConfig default where no scene is read.
SUBCOMMAND_OPTIONS = {
    "pack-boxes": [
        ("-h --help", argparse.SUPPRESS), ("input", None), ("--omega", None), ("--scales", None),
        ("--min-dim", None), ("--padding", None), ("--packer", "fastatlas"),
        ("--block-size", None), ("--svg", False), ("--out", None),
    ],
    "atlas-scene": [
        ("-h --help", argparse.SUPPRESS), ("scene", None), ("--omega", None), ("--scales", None),
        ("--min-dim", None), ("--padding", None), ("--res", None), ("--prescale", None),
        ("--packer", "fastatlas"), ("--svg", False), ("--out", None),
    ],
    "compare": [
        ("-h --help", argparse.SUPPRESS), ("input", None),
        ("--packer", "fastatlas,sequential,superblock"), ("--omega", None), ("--scales", None),
        ("--min-dim", None), ("--padding", None), ("--block-size", None),
        ("--out", "compare.csv"),
    ],
    "gen-boxes": [
        ("-h --help", argparse.SUPPRESS), ("--count", None), ("--omega", None), ("--seed", 0),
        ("--out", None),
    ],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["pack-boxes", "{boxes}", "--omega", "abc"],
        ["pack-boxes", "{boxes}", "--omega", "64", "--scales", "x"],
        ["pack-boxes", "{boxes}"],
        ["atlas-scene", "{scene}", "--omega", "abc"],
        ["atlas-scene", "{scene}", "--res", "12by9"],
        ["atlas-scene"],
        ["compare", "{boxes}", "--omega", "64", "--padding", "x"],
        ["compare", "{scene}", "--omega", "64", "--block-size", "1.5"],
        ["compare", "{boxes}"],
        ["compare", "{scene}", "--omega", "64", "--packer", ","],
        ["compare", "{boxes}", "--omega", "64", "--packer", ""],
        ["gen-boxes", "--count", "4", "--omega", "64", "--seed", "zz", "--out", "{out}"],
        ["gen-boxes", "--count", "x", "--omega", "64", "--out", "{out}"],
        ["gen-boxes", "--omega", "64", "--out", "{out}"],
        [],
        ["pack-all", "{boxes}"],
    ],
    ids=["pack_boxes_omega", "pack_boxes_scales", "pack_boxes_no_omega", "atlas_scene_omega",
         "atlas_scene_res", "atlas_scene_no_scene", "compare_padding", "compare_block_size",
         "compare_no_omega", "compare_no_packer", "compare_empty_packer", "gen_boxes_seed",
         "gen_boxes_count", "gen_boxes_no_count", "no_command", "unknown_command"],
)
def test_malformed_or_missing_flag_exits_1(tmp_path, capsys, monkeypatch, argv):
    # Left to argparse, a usage error would exit 2, the code of a pack failure.
    monkeypatch.setattr("atlaspack.cli.depth_prepass", fail_if_called)
    boxes = tmp_path / "boxes.txt"
    boxes.write_text("0 0 4 4\n")
    paths = dict(boxes=boxes, scene=write_scene(tmp_path, QUAD_OBJ), out=tmp_path / "out.txt")
    assert main([a.format(**paths) for a in argv]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: atlaspack")
    assert "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["compare", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_no_option_added_or_removed():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [(" ".join(a.option_strings) or a.dest, a.default) for a in parser._actions]
        for name, parser in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS


def test_parser_is_built_once_and_keeps_no_state():
    parser = build_parser()
    assert build_parser() is parser
    assert parser.parse_args(["pack-boxes", "a.txt", "--omega", "64", "--svg"]).svg
    args = parser.parse_args(["pack-boxes", "b.txt", "--omega", "64"])
    assert (args.input, args.svg) == ("b.txt", False)
