"""The 20 scene views of the benchmark, pinned frame by frame.

Each view of ``perfbench/workloads.py`` (seed 5) runs through the scene
pipeline, and a digest of its depth buffer, visibility flags, chart labels,
chart boxes and layout digest must equal the value the pipeline gave when
it was pinned. A change to the raster passes, the charts or the packer that
moves a single bit of a frame shows here.
"""

import hashlib
from pathlib import Path

import numpy as np

from atlaspack import cli
from atlaspack.metrics import layout_digest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 5

# sha256 of each view's depth, flags, labels, boxes, box pixels and layout digest.
PINNED = {
    "grid-view0.cfg": "48db1220a8df9140fb1cbc211eb5df552b86a11100aec029e378804e70184579",
    "grid-view1.cfg": "1151b75099a2af6cc7c7b450423dd4755c7159717d350a6eed332f32c18276ac",
    "grid-view2.cfg": "8f083405048efb1d593daec6ab60a51d2bb830f23d8aefdc26e2585c9369808b",
    "grid-view3.cfg": "6bd831df0aa9c3dbf3f74c3ce23e8913e57dd467481edfa78b0177f935c8f44d",
    "cubes-view0.cfg": "7188e295c0d69de3d88c0dfc544841da5b6f8503e68751f6109ead78d9ccd063",
    "cubes-view1.cfg": "ed8243018013be6bc1fc06b83c3a21aa2da227d5e5f1ddc70c9aa089e9f19779",
    "cubes-view2.cfg": "aae317ebf65beb4fb7a7500b0ba70100eafdb492cc68d99a226adb1edaba5c86",
    "cubes-view3.cfg": "601d3f7bce7473b533b9bf245ef7e0ee3d831bc47c21f8026aef35cd81ee3490",
    "cubes-view4.cfg": "c7f26d83e3873eb21f2f0e262b0c048cabc197bbbec6bcd831ca161a1d72b245",
    "cubes-view5.cfg": "78be0cd9624e07be5818cb34856525d42314ecd3885f4a603148d2345aaf1e52",
    "cubes-view6.cfg": "cbc5b2b5b916bd82c2a0c1d02e40f47e1c2916617abe95c86d8e0276cf392d83",
    "cubes-view7.cfg": "bfbd28580f2f60774f7a2689fb92a1a657979aee8178b7a4dab22269e226ba44",
    "cubes-view8.cfg": "8028a183c5602535300893eb06ea18938a53f2fb2c1f8aac1f109b235123b79f",
    "cubes-view9.cfg": "c1f5597779da5328586c960b0c7d259ea4916f492da9ab95b8eb564af1d4873d",
    "cubes-view10.cfg": "e097260cb476b91f2d1291c1e06be0efd1d3674b05db55a179b7775daf219558",
    "cubes-view11.cfg": "1c8cb1448a7e178c80104927a45647cd186a8456c55b4f1456a18dec221c5a3c",
    "cubes-view12.cfg": "29600c59a2a5d659b6158c3c60cf9341c74bf179992f3efe95063535201d9baf",
    "cubes-view13.cfg": "57b28fe0f15b530be18c338f8ba27dc197a5e4c886197d3fcc37ca43e58d6b79",
    "cubes-view14.cfg": "bda42c703c80d50b547931ac78efa4111449cb865844fa7af2eb69b733ffb2df",
    "cubes-view15.cfg": "43adbc2ddedef3b7ba0dbdbc5ef3bfbc73ad0f79ef8013549123585770d83ab8",
}


def view_digests(workdir: Path, monkeypatch) -> dict[str, str]:
    """The digest of every scene view of the benchmark, by its config's file name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    passes = {}

    def keep(name, fn):
        def run(*args):
            passes[name] = out = fn(*args)
            return out

        monkeypatch.setattr(cli, name, run)

    keep("depth_prepass", cli.depth_prepass)
    keep("mark_visible", cli.mark_visible)
    digests = {}
    for name in ("scene-grid", "scene-cubes"):
        for inp in workloads.WRITERS[name](workdir, SEED):
            result = cli.run_scene_pipeline(cli.parse_scene_config(inp.argv[1]))
            h = hashlib.sha256()
            for a in (
                passes["depth_prepass"],
                passes["mark_visible"].flags,
                result.chart_set.chart_of_triangle,
                result.boxes,
                result.chart_px,
            ):
                h.update(np.ascontiguousarray(a).tobytes())
            h.update(layout_digest(result.layout).digest.encode())
            digests[inp.key] = h.hexdigest()
    return digests


def test_benchmark_views_are_pinned(tmp_path, monkeypatch):
    digests = view_digests(tmp_path, monkeypatch)
    assert len(digests) == 20
    assert digests == PINNED
