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
    "grid-view0.cfg": "00e1986addc96b4cb8711ff009796b3a818d26900956fe95154090a47aaa9c3d",
    "grid-view1.cfg": "34694ff74f741aaeafe328e9bb3b5eac91b981370487b2491b89a790ba84eeaa",
    "grid-view2.cfg": "057cdd78391c5006934fe27f6e5ac3f01bcc9de710562744f8f6faedd0e34552",
    "grid-view3.cfg": "9d5cdaabaae3b23a6623e32efb9b9eea9e3a5f030084a3126f512fe7f376fa78",
    "cubes-view0.cfg": "54cb9ceee6b2e584a96f96047db51ec24b93194bdc5e0d48f7a2f68bd78a9d6e",
    "cubes-view1.cfg": "54ce914c5d1f99cba1a47dabecd9ce66d50c4aa2d5feb9927e68ac8d04dd006c",
    "cubes-view2.cfg": "c1cc3b42194a81b2ea4fbf52a7c9622dbd48b2cecd483b52173ae25a6e6dd786",
    "cubes-view3.cfg": "6cb64b6d886d196e4c2e770bad84a8f742bf6b8760fa2844bf05444c3159e587",
    "cubes-view4.cfg": "a28ddd6f60e88614345fb892dbeeb54a7c33acbda70e131d3bfb7311675de55f",
    "cubes-view5.cfg": "01c2326fa2d3c8e6f626d40e888452aca43891beea0fe70e85732f9af007a6fc",
    "cubes-view6.cfg": "9f9d6455a1101942a13ca75c03d5431255b353e5b54d7583bdbd48b6e8bf3bde",
    "cubes-view7.cfg": "e250716a3dbe5436943fbe0e8f6eabefbbbb7060adacf9521464669fb1754a37",
    "cubes-view8.cfg": "afede7ea41b53bd6efac80cdba1a1357616e12cfd20c198ab1d7597f2e030fa3",
    "cubes-view9.cfg": "18439c51cd6d2ee49aad74e03a2be26ea88bf7f2d11e71a8494da84ae5beeab9",
    "cubes-view10.cfg": "cf6995f0fe104d4261f89b678970361fa596ca2c1bf5bcc37e8b0d3df9cf78eb",
    "cubes-view11.cfg": "edfa64b995a653967ada4b666d75514cd35c8b2a0440ba718c98271ad1275445",
    "cubes-view12.cfg": "3941031aef617b0afd3cb9b07115f7a610230ed869e0f80196218f9ac0fcbc4d",
    "cubes-view13.cfg": "842e24a15a7e9ceb5d2822605978a6bc37114190eaae5a35505cea13e003c8cb",
    "cubes-view14.cfg": "84a8c8a3e71c4a9103053fddd30aded8595b223f1545146b29ae33e191bc09ea",
    "cubes-view15.cfg": "e67bf35966f552ec4e05f75903e57ec69720f2ef86803e3f7d709beb95b01133",
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
