import json

import numpy as np
import pytest

from dddflow import cli, netio
from dddflow import energy_force as EF
from dddflow import geometry as GE
from dddflow import kernels as KN
from dddflow import shapes as SH
from dddflow.config import load_config, loads_config
from dddflow.errors import ConfigError, GeometryError
from dddflow.evolution import StepPolicy


def test_minimal_config_fills_defaults():
    cfg = loads_config('{"epsilon": 0.1}')
    assert cfg.epsilon == 0.1
    assert cfg.data["quadrature"]["sphere_polar"] == 24
    assert cfg.data["remesh"] == {"h_min": 0.3, "h_max": 1.0}
    assert cfg.data["mobility"]["isotropic"]["m"] == 1.0
    # the run-policy defaults are StepPolicy's own
    assert cfg.step_policy() == StepPolicy()
    # round trip through the canonical dump is the identity
    again = loads_config(cfg.dump())
    assert again.dump() == cfg.dump()


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"epsilon": -1}', "epsilon"),
        ('{"epsilon": 0.1, "bogus": 3}', "bogus"),
        ('{"epsilon": 0.1, "remesh": {"h_min": 1.0, "h_max": 0.3}}', "h_min"),
        ('{"epsilon": 0.1, "stepping": {"c3": 1}}', "c3"),
        ('{"epsilon": 0.1, "mobility": {"alpha": 1.0}}', "mobility"),
        ('{"epsilon": 0.1, "elasticity": {"full": [1, 2]}}', "elasticity.full"),
        ('{"epsilon": 0.1, "quadrature": {"surface_points": 2}}', "surface_points"),
        ("not json", "JSON"),
        ("[1,2]", "object"),
        ('{"quadrature": {}}', "epsilon"),
        ('{"epsilon": 0.1, "seed": 0}', "seed"),
        ('{"epsilon": Infinity}', "epsilon"),
        ('{"epsilon": 0.1, "stepping": {"dt_max": NaN}}', "stepping.dt_max"),
        ('{"epsilon": 0.1, "elasticity": {"isotropic": {"lambda": Infinity}}}', "lambda"),
        ('{"epsilon": 0.1, "elasticity": {"full": ["a"' + ", 0" * 80 + "]}}", "elasticity.full"),
        ('{"epsilon": 0.1, "quadrature": {"sphere_polar": 3}}', "quadrature.sphere_polar"),
        ('{"epsilon": 0.1, "quadrature": {"sphere_azimuthal": 2}}', "quadrature.sphere_azimuthal"),
        ('{"epsilon": 0.1, "quadrature": {"line_order": 0}}', "quadrature.line_order"),
        # a loop that escapes annihilation would be too short to remesh
        ('{"epsilon": 0.1, "annihilation_kappa": 0.5}', "annihilation_kappa.*remesh.h_min"),
        # a section that is not a JSON object
        ('{"epsilon": 0.1, "stepping": 5}', "'stepping' must be a JSON object"),
        ('{"epsilon": 0.1, "output": null}', "'output' must be a JSON object"),
        ('{"epsilon": 0.1, "mobility": {"isotropic": 3}}', "'mobility.isotropic' must be a JSON object"),
        ('{"epsilon": 0.1, "quadrature": "ab"}', "'quadrature' must be a JSON object"),
        # a snapshot at every step is "every": 1, not 0
        ('{"epsilon": 0.1, "output": {"every": 0}}', "output.every"),
    ],
)
def test_config_errors_name_the_key(text, needle):
    with pytest.raises(ConfigError, match=needle):
        loads_config(text)


def test_config_builders():
    cfg = loads_config(
        '{"epsilon": 0.2, "mobility": {"alpha": 0.5, "bcc": {"B_eg": 2.0, "B_ec": 0.5, "B_s": 1.0}}}'
    )
    model = cfg.mobility_model()
    assert model.alpha == 0.5 and model.drag.B_eg == 2.0
    ev = cfg.kernel_evaluator()
    assert ev.epsilon == 0.2
    policy = cfg.step_policy()
    assert policy.h_max == 1.0


def test_config_full_elasticity_requires_symmetry():
    vals = [0.0] * 81
    vals[1] = 1.0  # C_1112 without its symmetric partners
    with pytest.raises(ConfigError, match="symmetr"):
        loads_config(json.dumps({"epsilon": 0.1, "elasticity": {"full": vals}}))


def test_network_roundtrip_bit_exact(lat, rng, tmp_path):
    loops = [
        SH.random_loop(lat, rng, n_nodes=9),
        SH.circle_loop(lat, np.pi, 17, burgers=(1, -1, 2), center=(np.e, 1 / 3, -np.sqrt(2))),
    ]
    net = GE.DislocationNetwork(lat, loops, 0.125)
    p1 = tmp_path / "net.json"
    netio.save_network(net, p1)
    back = netio.load_network(p1)
    p2 = tmp_path / "net2.json"
    netio.save_network(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in zip(net.loops, back.loops):
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.burgers.coords, b.burgers.coords)


def test_save_network_writes_the_dumped_dict(lat, tmp_path):
    # a snapshot is the C encoder's text of the dict and one newline
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 128, burgers=(1, 1, 0)), 0.1)
    path = tmp_path / "snap.json"
    netio.save_network(net, path)
    assert path.read_text() == json.dumps(netio.network_to_dict(net)) + "\n"
    back = netio.load_network(path)
    assert back.epsilon == net.epsilon and back.lattice == net.lattice
    assert np.array_equal(back.loops[0].nodes, net.loops[0].nodes)
    assert np.array_equal(back.loops[0].burgers.coords, net.loops[0].burgers.coords)


def test_network_format_validation(tmp_path):
    with pytest.raises(ConfigError, match="format"):
        netio.network_from_dict({"format": "nope"})
    with pytest.raises(ConfigError, match="unknown"):
        netio.network_from_dict(
            {"format": "ddd-net/1", "epsilon": 1.0, "lattice": np.eye(3).tolist(), "loops": [], "x": 1}
        )
    # JSON's NaN and Infinity literals load as floats: reject them, naming the loop or key
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text('{"epsilon": 0.1}')
    lattice = json.dumps(np.eye(3).tolist())
    for eps, z, needle in (("0.1", "NaN", "loop 1: loop nodes must be finite"), ("Infinity", "0", "epsilon")):
        path = tmp_path / "bad.json"
        path.write_text(
            f'{{"format": "ddd-net/1", "epsilon": {eps}, "lattice": {lattice}, "loops": ['
            '{"burgers": [0, 0, 1], "nodes": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]}, '
            f'{{"burgers": [0, 0, 1], "nodes": [[0, 0, 0], [1, 0, 0], [1, 1, {z}]]}}]}}'
        )
        with pytest.raises(ConfigError, match=needle):
            netio.load_network(path)
        assert cli.main(["energy", "--input", str(path), "--config", str(cfgpath)]) == 2


@pytest.mark.parametrize(
    "key, edit",
    [
        ("epsilon", lambda d: d.update(epsilon="0.1")),
        ("epsilon", lambda d: d.update(epsilon=True)),
        ("loop 0: 'nodes'", lambda d: d["loops"][0]["nodes"][1].__setitem__(0, "1")),
        ("loop 0: 'burgers'", lambda d: d["loops"][0].update(burgers=[0, 0, True])),
        ("lattice", lambda d: d["lattice"][2].__setitem__(2, "1")),
    ],
)
def test_network_numbers_must_be_json_numbers(tmp_path, key, edit):
    # strings and booleans where numbers belong are rejected, as in the config
    data = {"format": "ddd-net/1", "epsilon": 0.1, "lattice": np.eye(3).tolist(),
            "loops": [{"burgers": [0, 0, 1], "nodes": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]}]}
    netio.network_from_dict(json.loads(json.dumps(data)))
    edit(data)
    with pytest.raises(ConfigError, match=f"{key}.* must hold JSON numbers only"):
        netio.network_from_dict(json.loads(json.dumps(data)))
    netpath, cfgpath = tmp_path / "net.json", tmp_path / "cfg.json"
    netpath.write_text(json.dumps(data))
    cfgpath.write_text('{"epsilon": 0.1}')
    assert cli.main(["energy", "--input", str(netpath), "--config", str(cfgpath)]) == 2


def test_diagnostics_csv_columns():
    from dddflow.evolution import DiagnosticsRow

    assert DiagnosticsRow.COLUMNS == (
        "t", "dt", "mass", "theta_hat", "energy", "v_inf", "dv_inf", "f_inf",
        "energy_decrement", "ratio_ap_vel", "ratio_pk_linf", "ratio_length_rate",
        "ratio_mass",
    )
    header = netio.diagnostics_csv([]).strip()
    assert header == ",".join(DiagnosticsRow.COLUMNS)


def test_render_svg(lat, tmp_path):
    net = GE.DislocationNetwork(
        lat,
        [SH.circle_loop(lat, 1.0, 12), SH.circle_loop(lat, 0.5, 8, burgers=(1, 0, 0), center=(3, 0, 0))],
        0.1,
    )
    text = netio.render_svg(net, "xy")
    assert text.count("<path") == 2
    assert "eps" in text  # scale bar label
    with pytest.raises(GeometryError):
        netio.render_svg(GE.DislocationNetwork(lat, [], 0.1), "xy")
    with pytest.raises(ValueError):
        netio.render_svg(net, "ab")
    out = tmp_path / "net.svg"
    netio.render_svg(net, "xz", out)
    assert out.exists()


def test_kernel_table(lat, ev_unit):
    pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.7, -0.2]])
    text = netio.kernel_table_csv(ev_unit, pts, include_grad=True)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert len(header) == 3 + 81 + 243
    assert header[3] == "K_1111" and header[84] == "dK_1111_1"
    from dddflow.kernels import sphere_sum

    row = np.array([float(v) for v in lines[1].split(",")])
    want = sphere_sum(ev_unit, pts)[0].ravel()
    assert np.allclose(row[3:84], want, rtol=1e-15)


def test_kernel_table_formats_every_value_by_repr(monkeypatch):
    # repeats, both zeros, neighbours one ulp apart, subnormals and non-finite values
    pool = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0, 0.1, 5e-324, -5e-324]
    pool += [1e300, np.inf, -np.inf, np.nan]
    n = netio.TABLE_BLOCK + 45
    rng = np.random.default_rng(3)
    tables = rng.choice(pool, size=(4, n, 81))  # K, then dK along x, y, z

    def fake_sphere_sum(ev, S, order=0, factor=None, directions=None):
        which = 0 if directions is None else 1 + int(np.argmax(directions[0]))
        return tables[which][S[:, 0].astype(int)].reshape(-1, 3, 3, 3, 3)

    monkeypatch.setattr("dddflow.kernels.sphere_sum", fake_sphere_sum)
    pts = np.zeros((n, 3))
    pts[:, 0] = np.arange(n)
    pts[:, 1] = -0.0
    text = netio.kernel_table_csv(None, pts, include_grad=True)
    data = np.concatenate([pts, tables[0], np.stack(tables[1:], axis=-1).reshape(n, 243)], axis=1)
    body = "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())
    assert text.split("\n", 1)[1] == body


def test_kernel_table_memory_is_bounded(iso11):
    import tracemalloc

    ev = KN.KernelEvaluator(iso11, KN.MollifierProfile(0.1), KN.SphericalQuadrature.product_rule(12, 24))
    axes = [np.linspace(-1.0, 1.0, 12)] * 3
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    tracemalloc.start()
    try:
        text = netio.kernel_table_csv(ev, pts, include_grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text itself and its rows before the join come to 2x
    assert peak <= 2.5 * len(text)


def _write_inputs(tmp_path, lat, n_nodes=24, radius=0.5, epsilon=0.1, extra_cfg=None):
    net = SH.single_loop_network(SH.circle_loop(lat, radius, n_nodes), epsilon)
    netpath = tmp_path / "net.json"
    netio.save_network(net, netpath)
    cfg = {
        "epsilon": epsilon,
        "quadrature": {"sphere_polar": 12, "sphere_azimuthal": 24, "line_order": 2},
        "stepping": {"t_end": 0.02, "dt_max": 0.01},
    }
    cfg.update(extra_cfg or {})
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(cfg))
    return netpath, cfgpath


def test_cli_energy_force_table_render(lat, tmp_path, capsys):
    netpath, cfgpath = _write_inputs(tmp_path, lat)
    out = tmp_path / "e.csv"
    assert cli.main(["energy", "--input", str(netpath), "--config", str(cfgpath), "--out", str(out)]) == 0
    header, *rows, total = out.read_text().strip().split("\n")
    assert header == "loop_i,loop_j,energy"
    cfg = load_config(cfgpath)
    want = EF.energy_line(netio.load_network(netpath), cfg.kernel_evaluator(), cfg.line_rule())
    for row in rows:
        i, j, value = row.split(",")
        assert float(value) == want.matrix[int(i), int(j)]
    assert total.startswith("total,,") and float(total[7:]) == want.total
    fout = tmp_path / "f.csv"
    assert cli.main(["force", "--input", str(netpath), "--config", str(cfgpath), "--out", str(fout)]) == 0
    assert fout.read_text().startswith("node,x,y,z,fx,fy,fz,lumped_length")
    tout = tmp_path / "k.csv"
    assert cli.main([
        "kernel-table", "--config", str(cfgpath), "--lo=-0.2,-0.2,-0.2",
        "--hi", "0.2,0.2,0.2", "--n", "2,2,2", "--out", str(tout),
    ]) == 0
    assert len(tout.read_text().strip().split("\n")) == 9
    svg = tmp_path / "net.svg"
    assert cli.main(["render", "--input", str(netpath), "--plane", "xy", "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_cli_simulate(lat, tmp_path):
    netpath, cfgpath = _write_inputs(tmp_path, lat)
    outdir = tmp_path / "run"
    code = cli.main([
        "simulate", "--input", str(netpath), "--config", str(cfgpath),
        "--out-dir", str(outdir), "--svg",
    ])
    assert code == 0
    assert (outdir / "diagnostics.csv").exists()
    assert (outdir / "events.jsonl").exists()
    assert (outdir / "final.json").exists()


def test_cli_rejects_legendre_hadamard_violation(lat, tmp_path, capsys, lh_violating_cubic):
    cfg = {"elasticity": {"full": lh_violating_cubic}}
    netpath, cfgpath = _write_inputs(tmp_path, lat, extra_cfg=cfg)
    assert cli.main(["energy", "--input", str(netpath), "--config", str(cfgpath)]) == 2
    err = capsys.readouterr().err
    assert "'elasticity.full'" in err and "Legendre-Hadamard" in err
    # simulate stops before it makes its output directory
    outdir = tmp_path / "run"
    args = ["simulate", "--input", str(netpath), "--config", str(cfgpath), "--out-dir", str(outdir)]
    assert cli.main(args) == 2
    assert not outdir.exists()


def test_cli_exit_codes(lat, tmp_path, monkeypatch):
    netpath, cfgpath = _write_inputs(tmp_path, lat)
    # usage: unknown subcommand
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["kernel-table", "--config", str(cfgpath), "--n", "2,2"]) == 1
    assert cli.main(["kernel-table", "--config", str(cfgpath), "--n", "2,-1,2"]) == 1
    assert cli.main(["kernel-table", "--config", str(cfgpath), "--n", "0,2,2"]) == 1
    assert cli.main(["kernel-table", "--config", str(cfgpath), "--lo", "nan,0,0"]) == 1
    assert cli.main(["kernel-table", "--config", str(cfgpath), "--hi", "1,inf,1"]) == 1
    # usage: finite bounds whose grid overflows
    args = ["kernel-table", "--config", str(cfgpath), "--lo=-1.7e308,0,0", "--hi=1.7e308,1,1", "--n", "3,2,2"]
    assert cli.main(args) == 1
    # usage: quadrature orders that no rule accepts, before any suite runs
    assert cli.main(["check", "--sphere-polar", "3"]) == 1
    assert cli.main(["check", "--sphere-azimuthal", "2"]) == 1
    # config: malformed file
    bad = tmp_path / "bad.json"
    bad.write_text('{"epsilon": -2}')
    assert cli.main(["energy", "--input", str(netpath), "--config", str(bad)]) == 2
    for quadrature in ('{"sphere_azimuthal": 2}', '{"line_order": 0}'):
        bad.write_text('{"epsilon": 0.1, "quadrature": ' + quadrature + "}")
        assert cli.main(["energy", "--input", str(netpath), "--config", str(bad)]) == 2
    assert cli.main(["energy", "--input", str(netpath), "--config", str(tmp_path / "nope.json")]) == 2
    # config: a network file that is missing or not JSON
    assert cli.main(["energy", "--input", str(tmp_path / "nope.json"), "--config", str(cfgpath)]) == 2
    bad.write_text("not json")
    assert cli.main(["energy", "--input", str(bad), "--config", str(cfgpath)]) == 2
    # config: an output path that cannot be written, found before computing
    def never(*args, **kwargs):
        pytest.fail("computed before checking --out")

    with monkeypatch.context() as m:
        m.setattr(cli, "energy_line", never)
        m.setattr(cli, "pk_force", never)
        m.setattr(netio, "kernel_table_csv", never)
        for nowhere in (str(tmp_path / "missing" / "out.csv"), str(bad / "out.csv")):
            for command in ("energy", "force"):
                args = [command, "--input", str(netpath), "--config", str(cfgpath), "--out", nowhere]
                assert cli.main(args) == 2
            assert cli.main(["kernel-table", "--config", str(cfgpath), "--n", "1,1,1", "--out", nowhere]) == 2
        assert not (tmp_path / "missing").exists()
    nowhere = str(tmp_path / "missing" / "out.csv")
    assert cli.main(["render", "--input", str(netpath), "--out", nowhere]) == 2
    assert cli.main(["simulate", "--input", str(netpath), "--config", str(cfgpath), "--out-dir", str(bad)]) == 2
    # numerical: a valid network file without loops
    empty = tmp_path / "empty.json"
    netio.save_network(GE.DislocationNetwork(lat, [], 0.1), empty)
    for command in ("energy", "force"):
        assert cli.main([command, "--input", str(empty), "--config", str(cfgpath)]) == 3
    # blow-up: tiny theta_max plus --fail-on-blowup
    netpath2, cfgpath2 = _write_inputs(tmp_path, lat, extra_cfg={"theta_max": 1.5})
    outdir = tmp_path / "blow"
    code = cli.main([
        "simulate", "--input", str(netpath2), "--config", str(cfgpath2),
        "--out-dir", str(outdir), "--fail-on-blowup",
    ])
    assert code == 4


def test_cli_check_only_needs_a_name(monkeypatch):
    # `--only` with no names is a usage error, not a request for every suite
    monkeypatch.setattr(cli.checks, "run_checks", lambda **kw: pytest.fail("ran the suites"))
    assert cli.main(["check", "--only"]) == 1
    assert cli.main(["check", "--only", "--nphi-scale", "1.1"]) == 1


def test_run_checks_empty_names_runs_none():
    assert cli.checks.run_checks(names=[]) == []


def test_nphi_scale_is_built_into_the_evaluator():
    plain = cli.checks._evaluator()
    scaled = cli.checks._evaluator(overrides={"nphi_scale": 1.1})
    assert scaled.fk_scale == 1.1
    assert not scaled.fk.flags.writeable
    assert np.array_equal(scaled.fk, 1.1 * plain.fk)


def test_cli_check_degraded_configs(capsys):
    # a deliberately broken profile amplitude must fail the oracle suite
    code = cli.main(["check", "--only", "kernel_self_convergence", "--sphere-polar", "4"])
    assert code == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    code = cli.main(["check", "--only", "kernel_symmetry"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_check_nphi_perturbation(capsys):
    code = cli.main(["check", "--only", "oracle_equivalence", "--nphi-scale", "1.1"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out
    # the scaled K factor must also reach the line energy's correlation
    # path, which the unscaled J surface energies then disagree with
    code = cli.main(["check", "--only", "surface_independence", "--nphi-scale", "1.1"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out
