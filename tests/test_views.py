"""The 20 scene views and 3 box sets of the benchmark, pinned bit for bit.

Each view of ``perfbench/workloads.py`` (seed 5) runs through the scene
pipeline, and a digest of its depth buffer, visibility flags, chart labels,
chart boxes and layout digest must equal the value the pipeline gave when
it was pinned. A change to the raster passes, the charts or the packer that
moves a single bit of a frame shows here. The 66 files that the CLI writes
for the same inputs, the layout, charts and metrics of each view and the
layout and metrics of each box set, are pinned by their sha256 as well, and
so is each view's raster sample stream; the harness joins the depth of a
frame's bands and ORs their flags. Two views also bound the raster's
scratch memory and show that its memory budgets and bands change none of
its output.
"""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np

from atlaspack import charts, cli
from atlaspack.charts import (
    _chunks,
    depth_prepass,
    load_obj,
    mark_visible,
    screen_bands,
    screen_setup,
)
from atlaspack.geometry import clip_coords
from atlaspack.metrics import layout_digest
from oracles import banded_raster, whole_rows

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

# sha256 of each view's raster sample stream (sample_stream_digest): chunks may be cut
# anywhere, the stream may not move. Re-pinned once when the clipped polygons became one
# set-up group, so clipped triangles no longer stream ahead of clipped quads; the samples
# sorted by (t, pixel, z) did not change on any view.
PINNED_STREAMS = {
    "grid-view2.cfg": "0bbd2ca0570c321c2a3d141a0f17e72555e870e42e25629676360db0b4a0192e",
    "grid-view0.cfg": "becedf7d4bf71d87a97b728aff1cc516f8d8690bd1b3a0e62cd5e5d8b89f27bd",
    "grid-view3.cfg": "8ad86d84d00669b9260933a29dfac3cae31ddce82e0d68a3f25cff2f6be7f01c",
    "grid-view1.cfg": "09707534d7095ae8baeb148126d5882b256badefb6e7f7270266b603df86fae3",
    "cubes-view11.cfg": "d24d0b65690cd138118491c5734f4216d5d27d2d3cbb0797d2a2664afb295930",
    "cubes-view12.cfg": "1429834288f1b003df71f8028302dcb37fa3dba8be64884086f52a023f606a1f",
    "cubes-view7.cfg": "71f5d1b8f94331c882aa574a6bf6d76e15a1e777d48a8d9b472e54bc868ce33c",
    "cubes-view10.cfg": "69414b3b655a78de06aa00dedc67183c1b871b185e291907b117cbea01aeed82",
    "cubes-view9.cfg": "629b657b6f9b38619d25612d6514ad972197aa31794e8b05c310bb0017536ac6",
    "cubes-view13.cfg": "d8a20a9ac9e02c9c6c27a418d2a0ee2f449c4f3dc2621d3bcb5c824ec11c5881",
    "cubes-view5.cfg": "0eadae590cadb13ef81b901d45b873e5f301843fa50dd9b8e4c644d11cfb08d5",
    "cubes-view2.cfg": "52c17f5a8994d70f9e3d0e8402affdb95a71a3cae754f72161b556a72f521a04",
    "cubes-view4.cfg": "9ce70a8d13b1203b8b427aaa911f092cb40fa8de11c5a8d73b79dae5715b536b",
    "cubes-view6.cfg": "8087c6e418dd4b9d1b59de21e65e18523ff52980fdd099f75f7d2d095eebdbf5",
    "cubes-view8.cfg": "1d2c6b3f559e80801a89ffbe78ac7f8c375abbdf67772574f48987522b020058",
    "cubes-view0.cfg": "85ea9637145278a551136e519d977567fe1bc97775b6e5b150d98698eab92824",
    "cubes-view15.cfg": "2a7c95e1220b3a0a7d384363cb1762a3b8a2e3ec8866812145ad0741d215442c",
    "cubes-view14.cfg": "e2011b0b3c0b9038d601350ae32115884c3509f249ac944ae194588307a1ff1e",
    "cubes-view3.cfg": "d16a7b423bfd33274911f6907f8594c2efaee7f60c77b4e3dbedfca2328c0364",
    "cubes-view1.cfg": "060b82503b5f0d3242d49db17c720f5313acefc61102da0e18e914d8b0443227",
}

# sha256 of each output file of the benchmark's CLI calls, by file name.
PINNED_OUTPUTS = {
    "grid-view0.layout.txt": "6922718457f23da8da4a81a931897c1aede9b61497f76bbfb0e8e4f326e7e52a",
    "grid-view0.charts.txt": "5d7467862473f2be252bccc7c318fa60d720f29f68e3ac6c5a19a61e176d4f77",
    "grid-view0.metrics.csv": "688499a36c15d180b1dbe93588766c4059b1e6582a30b9710d0808f0d4e35f3b",
    "grid-view1.layout.txt": "2e81864ecfc73479023c1ce2d42808118e0663ae45c2a5d33790e295fa3ff642",
    "grid-view1.charts.txt": "58172b0650e87a0a72c78e64f80d0151773ba83d70ba5648673df534c5e2252a",
    "grid-view1.metrics.csv": "59c68277ae38df303d7490edb0e208d27ec9a4891ded325b56581ab0d8794971",
    "grid-view2.layout.txt": "ae9f62c3c33c3b74800313f016240d32ff7615e244609a777647c72bf4a97fa8",
    "grid-view2.charts.txt": "692d54859f2e43c04e8f7b742b8994cb857bdc94dec7fdba1bb46a967f4bc2e4",
    "grid-view2.metrics.csv": "4dc75c3a55ff10d2c120371cf1deaa47f19ec4a678b97548c215aec1ce0b95fc",
    "grid-view3.layout.txt": "d5e0d7804061b6349dfcd459cb7c6e60baa9f6f95e920eb68a9077a584e2b5af",
    "grid-view3.charts.txt": "cbeca4dd777a3ea08c8e67d0f78b32854ad5f826e5e8da150075fe956a518291",
    "grid-view3.metrics.csv": "70095a4079354d21cf9429155bbf486c7cdc734b340ce9542e48c364d0b26164",
    "cubes-view0.layout.txt": "dceac26f42c1c1ed206b9eed651271cb0a11107aa0f14e61be059083c3f52663",
    "cubes-view0.charts.txt": "ee6f4289186d4ce6bbf57c5ecf2223529a26c78a1e8e4bbb84364d4c43c3db68",
    "cubes-view0.metrics.csv": "e82c685913cf687de71a8fd40a06268c3fc289f73aaf0297161c3a0d1f4f3724",
    "cubes-view1.layout.txt": "d121a7515a8d0dd2a00b497a7b94471f6482be8bc24e85bf6490488e1b6f0a2c",
    "cubes-view1.charts.txt": "97316ad599c5a2d8446fea2e6b12aafe87f8eebb10d6384e06065c734155e19f",
    "cubes-view1.metrics.csv": "2e3cf1e5d7263cc6853a046e2b4dc72162d40b2ae749eb9ad9d5ebdd1d65f868",
    "cubes-view2.layout.txt": "782e673b30bf94d7c1ab5dc8e70af997b11f5d20f3e7313bbdf5e68e462994b2",
    "cubes-view2.charts.txt": "52d218f8375ff23ca79bdd55bbc30bde724d19908787189857bbc828bfa1dd24",
    "cubes-view2.metrics.csv": "cdf47355ea341032353a75da1c4f0d00480afaaf60413c3085bbf21f57d08a05",
    "cubes-view3.layout.txt": "3da536cccb90acda4d3470f4ff9dbbcd95b9eeecad0db7d985d525c25671cbfa",
    "cubes-view3.charts.txt": "a0d979cebff6016ccd1e2685c29451730fe6c757fdad7c6a1fdafe70eba280ab",
    "cubes-view3.metrics.csv": "21cc4858dfb0fe9f4cf5803bb26b2c2e651f5286380bcf3658ae2fbef8580e61",
    "cubes-view4.layout.txt": "957c21a3e55783320267b7ec1228bd2f52438841ac3d306062f3359ee3b1e61e",
    "cubes-view4.charts.txt": "77c1181ed8894d49822adfba774039a8c5bdfdbeaec0a2a0d57b487a60e94bfb",
    "cubes-view4.metrics.csv": "52b7c95b226d4e6e1d7d97be9a2427c40a4f71185d55bbd0d72ad77ed37f8999",
    "cubes-view5.layout.txt": "d8b04618bbdf3a0c8f0275ce7b7c517bef1b940cb7a6d36026e9a39e095cec61",
    "cubes-view5.charts.txt": "eef82a3e1d02657aa2131a1581b054fb5b2b7174b1d84643b0cbca68e2e87c07",
    "cubes-view5.metrics.csv": "7fa48be6943b8a932d7c553de2726b9089b4427e37efdc4ed8d2be2e38e8cbfa",
    "cubes-view6.layout.txt": "fbbb8cfed4f44c7f3eba4736931d9f46e594aee0b2190bbb96bc9457921261b2",
    "cubes-view6.charts.txt": "16f1216e5dac8453827a56ffd35cea976f408cc0a3b142cbcdeb3f36bd726f30",
    "cubes-view6.metrics.csv": "d138568a1533d02e3cea580fb3ae3ecc708c3bdc8e93e89f579121e61fb1dadf",
    "cubes-view7.layout.txt": "06665c8a9efd2083ed2ecc43c0075c0af7896e9f126353bc40eeb252bcbd7133",
    "cubes-view7.charts.txt": "eeab61eddec3b3f0b53bc804b81c3353836f2e2068044ebb404edcdca1ccf6b0",
    "cubes-view7.metrics.csv": "22278ebede74484e868748f1321eec5685605cb1c96e8ef5ecf97db1a35f1278",
    "cubes-view8.layout.txt": "77d2b7172696ae076b2571679e72c2775df37c773189ed42a5f3e478ef6e052c",
    "cubes-view8.charts.txt": "69d800028abfd1015ac70544cbe7998ffab7485c942f68bd92fe9907395106c1",
    "cubes-view8.metrics.csv": "3f19204f9c5ffa02d05544ee8e97daf6043159224371e17bbe76620e5f192980",
    "cubes-view9.layout.txt": "278f8e9c83b7afab327d3b5f3b4335e961df29c83c3ca9d6fff3b6017329323e",
    "cubes-view9.charts.txt": "6e8b7c2fb1c0c21218bbaf03b700c04b2091d695357b1ab78d11b75c59e26e5c",
    "cubes-view9.metrics.csv": "f2260b946640e959a500c54dec27e55294a8948575198184fe9a603a633a5dd3",
    "cubes-view10.layout.txt": "75ecefecaa4f70ede52db55050aa9977432f02f29333727a296b5722acea34bb",
    "cubes-view10.charts.txt": "6ce43882bc2a0eb9f2390451e477a6a2a0cc4958542a65d7abc74206006ab55b",
    "cubes-view10.metrics.csv": "39188eb80eef8399ec179021c631bf200c85f4757a2425360cc3b39f78e78cfa",
    "cubes-view11.layout.txt": "b4ec95bee536fa35cb72f9177a2be57c9cd8582867dc437a3bafc99144f2a51f",
    "cubes-view11.charts.txt": "99664cd0d91044bcbb6edd24ba959f424f7355df5fbf54d87b957a6f1309d985",
    "cubes-view11.metrics.csv": "f63eea342966c269a3c57fe9475e98b3c709828656a0dc5645df6b3024643a28",
    "cubes-view12.layout.txt": "c7e294fa7424d039cab9530027dfb4cae4c94837bd066f9657e01657d3581bda",
    "cubes-view12.charts.txt": "f94c8e7010d1423edb9635c27903a25646c01211077b7962be26fa783d6c6f7a",
    "cubes-view12.metrics.csv": "bf2c1d24c8f6224912ea437221472d84ae0da597135d1c4683d2e9d61146d79b",
    "cubes-view13.layout.txt": "31972ba14c21a5b628f9481ca95b59a58289b4057448e9ce065fe2d31cfd6889",
    "cubes-view13.charts.txt": "2536135360563802d4e5a9d4233d5f1d87d96a40089e0d923ccba50dff2e8a16",
    "cubes-view13.metrics.csv": "a1e67a6fad3dbbb6c0c40b25ca6354c0c58b29806bbee5b4c54936c3320d30d0",
    "cubes-view14.layout.txt": "ae27095dd69c6eb7bb7aedce49d17390e540f88ca7a9c0b8aa95150fb69f5b40",
    "cubes-view14.charts.txt": "ffe22d9f73fa041dc0d4cccfb0fcdb4c205837df52bcf604d3085a79778fb040",
    "cubes-view14.metrics.csv": "c2af52d028fecf59458d1e470c162757983fa66a92ba82efab25708231197016",
    "cubes-view15.layout.txt": "59aef5e3e12800683b0f310cd3417fd9053ef73b27baa3c268c4ce062ec02af6",
    "cubes-view15.charts.txt": "318336c537c7d0d9caf8c33896d77f5d5c1c0d3b4be1c845457bae4d426d3fa6",
    "cubes-view15.metrics.csv": "80c594c4e300f3fef8edf466c8daca0983f838866d9053636e956275e102dd23",
    "boxes-0.layout.txt": "f0965ecd7ba6310a15376de826bae5a4299c06fb3e54ff173485d48cd9ebd93e",
    "boxes-0.metrics.csv": "32ba9b0212ebc70f5b4808caefc4352e50f7cf192ecb3a34472c62a714ba24bc",
    "boxes-1.layout.txt": "0ac2259e64f126e95183e89db112d78d6b783ba3433563e487c209493b2face2",
    "boxes-1.metrics.csv": "b162cfa39e4bb3446affdd1f4725e2acc30aaf56dc0d1b617e2f4c71b19573c2",
    "boxes-2.layout.txt": "b314dcc7f9c0aeb312cb5e8029f5b212b14966015422156a73bb5df84bb217dd",
    "boxes-2.metrics.csv": "5b35ed675b5a04732e8a4668360dead6b5ab521bc1dca82ec1aa84904c8fbd91",
}


def view_digests(workdir: Path, monkeypatch) -> tuple[dict[str, str], dict[str, str]]:
    """The digest and sample-stream digest of every scene view of the benchmark, by its
    config's file name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    passes = {}

    def keep(name, fn):
        def run(*args):
            out = fn(*args)
            passes.setdefault(name, []).append(out)
            return out

        monkeypatch.setattr(cli, name, run)

    keep("screen_setup", cli.screen_setup)
    keep("depth_prepass", cli.depth_prepass)
    keep("mark_visible", cli.mark_visible)
    digests, streams = {}, {}
    for name in ("scene-grid", "scene-cubes"):
        for inp in workloads.WRITERS[name](workdir, SEED):
            cfg = cli.parse_scene_config(inp.argv[1])
            passes.clear()
            result = cli.run_scene_pipeline(cfg)
            h = hashlib.sha256()
            for a in (
                np.concatenate(passes["depth_prepass"]),  # the bands' depth, joined
                np.logical_or.reduce([vis.flags for vis in passes["mark_visible"]]),
                result.chart_set.chart_of_triangle,
                result.boxes,
                result.chart_px,
            ):
                h.update(np.ascontiguousarray(a).tobytes())
            h.update(layout_digest(result.layout).digest.encode())
            digests[inp.key] = h.hexdigest()
            streams[inp.key] = sample_stream_digest(passes["screen_setup"][0][0], cfg.screen[0])
    return digests, streams


def sample_stream_digest(setup, width: int) -> str:
    """sha256 of the (t, pixel, z) samples that _chunks yields over a set-up's groups: the
    triangle ids, then the flat pixel indices, then the depths, each concatenated in
    stream order, so where the chunks are cut does not matter."""
    columns = [hashlib.sha256() for _ in range(3)]
    for group in setup:
        for chunk in _chunks(group, int(width), whole_rows(group), 0):
            for h, a in zip(columns, chunk):
                h.update(a.tobytes())
    return hashlib.sha256("".join(h.hexdigest() for h in columns).encode()).hexdigest()


def test_benchmark_views_are_pinned(tmp_path, monkeypatch):
    digests, streams = view_digests(tmp_path, monkeypatch)
    assert len(digests) == 20
    assert digests == PINNED
    assert streams == PINNED_STREAMS


def test_benchmark_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    digests = {}
    for writer in workloads.WRITERS.values():
        for inp in writer(tmp_path, SEED):
            assert cli.main(list(inp.argv)) == cli.EXIT_OK, inp.key
            for path in inp.outputs().values():
                if path.exists():
                    digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(digests) == 66
    assert digests == PINNED_OUTPUTS


def benchmark_frame(workdir: Path, monkeypatch, scene: str, key: str):
    """(clip coordinates, mesh, config) of one seed-5 view of the benchmark."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inp = next(inp for inp in workloads.WRITERS[scene](workdir, SEED) if inp.key == key)
    cfg = cli.parse_scene_config(inp.argv[1])
    mesh = load_obj(cfg.mesh_path)
    return clip_coords(mesh.positions, cfg.camera()), mesh, cfg


def traced(fn, *args):
    """fn(*args), and the peak of the memory it allocated, as tracemalloc traces it."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_cube_view_does_not_depend_on_the_budgets(tmp_path, monkeypatch):
    vclip, mesh, cfg = benchmark_frame(tmp_path, monkeypatch, "scene-cubes", "cubes-view0.cfg")
    width, height = cfg.screen

    def raster():
        setup = screen_setup(vclip, mesh.triangles, cfg.screen, cfg.backface_cull)[0]
        depth, flags = banded_raster(setup, cfg.screen, mesh.n_triangles)
        return depth.tobytes(), flags.tobytes()

    want = raster()
    setup = screen_setup(vclip, mesh.triangles, cfg.screen, cfg.backface_cull)[0]
    assert len(list(screen_bands(setup, cfg.screen))) > 1
    for budget in (1, 3, 64):
        with monkeypatch.context() as m:
            for name in ("_POLYGONS", "_ROWS", "_CHUNK"):
                m.setattr(charts, name, budget)
            assert raster() == want, budget
    for rows in (1, 3, height):  # bands of 1 row, 3 rows and the whole frame
        monkeypatch.setattr(charts, "_BAND", rows * width)
        assert raster() == want, rows


def test_the_bands_split_a_frame_exactly(tmp_path, monkeypatch):
    # The passes wrapped where cli looks them up, as perfbench's tracer
    # wraps them: the pixels each band covers and the triangles each band
    # newly flags sum to the frame's totals, so per-call counters read them.
    _, _, cfg = benchmark_frame(tmp_path, monkeypatch, "scene-cubes", "cubes-view0.cfg")
    want = cli.frame_charts(cfg)  # two bands
    monkeypatch.setattr(charts, "_BAND", 100 * cfg.screen[0])
    bands, covered, flags = [], [], []
    depth_prepass, mark_visible = cli.depth_prepass, cli.mark_visible

    def counted_depth(band):
        depth = depth_prepass(band)
        rows = band[0]
        bands.append(rows)
        covered.append(int(np.isfinite(depth).sum()))
        assert depth.shape == (len(rows), cfg.screen[0])
        return depth

    def counted_visible(*args):
        vis = mark_visible(*args)
        flags.append(vis.flags)
        return vis

    monkeypatch.setattr(cli, "depth_prepass", counted_depth)
    monkeypatch.setattr(cli, "mark_visible", counted_visible)
    frame = cli.frame_charts(cfg)
    assert len(bands) == len(flags) == 6
    assert [r for band in bands for r in band] == list(range(cfg.screen[1]))
    assert sum(covered) == frame.screen_fragments == want.screen_fragments
    assert sum(int(f.sum()) for f in flags) == frame.n_visible == want.n_visible
    assert np.array_equal(np.logical_or.reduce(flags), want.chart_set.chart_of_triangle >= 0)


# Bounds on the raster's scratch memory, the traced peak beyond the arrays a
# step returns, about 15% over what each step takes on its view.
DEPTH_SCRATCH = 600_000  # depth_prepass on a band of cubes-view0, beyond its depth
VISIBILITY_SCRATCH = 750_000  # mark_visible on a band of cubes-view0, its flags included
SETUP_SCRATCH = 900_000  # screen_setup on grid-view0, beyond the set-up it returns


def test_raster_passes_stay_within_their_budget(tmp_path, monkeypatch):
    vclip, mesh, cfg = benchmark_frame(tmp_path, monkeypatch, "scene-cubes", "cubes-view0.cfg")
    setup = screen_setup(vclip, mesh.triangles, cfg.screen, cfg.backface_cull)[0]
    flags = np.zeros(mesh.n_triangles, dtype=bool)
    bands = list(screen_bands(setup, cfg.screen))
    assert len(bands) > 1
    for band in bands:
        rows = band[0]
        depth, peak = traced(depth_prepass, band)
        assert depth.nbytes <= 8 * charts._BAND
        assert peak - depth.nbytes < DEPTH_SCRATCH, (rows, peak - depth.nbytes)
        vis, peak = traced(mark_visible, band, depth, flags)
        assert peak < VISIBILITY_SCRATCH, (rows, peak)
        flags |= vis.flags


def test_screen_setup_stays_within_its_budget(tmp_path, monkeypatch):
    vclip, mesh, cfg = benchmark_frame(tmp_path, monkeypatch, "scene-grid", "grid-view0.cfg")
    out, peak = traced(screen_setup, vclip, mesh.triangles, cfg.screen, cfg.backface_cull)
    kept = sum(a.nbytes for a in arrays(out))
    assert peak - kept < SETUP_SCRATCH, peak - kept


def arrays(nested):
    """The arrays of nested tuples and lists of them."""
    if isinstance(nested, np.ndarray):
        return [nested]
    return [a for part in nested for a in arrays(part)]
