"""Golden envelopes: `tricut solve` output at fixed seeds, pinned by sha1.

Each case runs `tricut solve KIND --n N --seed S [--k K]` in process,
without --verify (so no timing enters the output), and pins two digests:
the sha1 of its stdout, and the sha1 of the parsed object written again as
`json.dumps(obj, indent=2, sort_keys=True) + "\n"`.  The second does not
depend on the layout, so it shows that no answer moved when only the
layout did.  Cell, arc and L-line envelopes stay byte-identical unless a
change says why; wedge and segment answers may move only when the sweep
changes.  Update a digest only in a change that states which envelopes
moved and why.

The layout changed once: envelopes were written whole with
`json.dumps(indent=2)`, which makes the json module use its pure-Python
encoder, and the instance echo is most of an envelope's bytes.  Now the
instance is written compact on its own line by the C encoder, and every
other value keeps the indented layout (`cli._envelope_text`).  The object
digests are the byte digests of the old layout; every byte digest moved
then, and no object digest did.  Files in the old layout still verify and
render.

One L-line answer moved since: `lline --n 8 --seed 2`.  The search used to
walk the orderings in schedule order and take the first one with a balanced
prefix, rank 8 at half a turn.  It now tests 16 evenly spaced orderings of
the schedule per pass (`llines._PROBES`) and takes the first of those with
a balanced prefix, rank 9; the walk's hit lies between two tested rows.  The
new answer is in `brute_oracle_llines`, like the old one.  Every other
L-line digest stayed as it was.

Every cell and wedge111 envelope moved since, with its instance.
`SimpleLines3C` and `Points3C` used to draw candidates until one passed a
general-position check, and gave up at 1,200 lines and at 800 points;
both are now built from Erdős's no-three-in-line points (i, i^2 mod p),
with no check and no retry, at every n (`generators._erdos_points`).  The
twelve new envelopes each pass `tricut verify`; no other digest moved.
"""

import contextlib
import hashlib
import io
import json

import pytest

from tricut import cli
from tricut.generators import GenKind

# (kind, n, seed, k, sha1 of the re-indented object, sha1 of stdout): six
# kinds at seeds 1-3, the default n and twice it, arcs at k in {1, n//2+1, n-1}
GOLDEN = [
    ('cell', 7, 1, None, '401139cf9ff1979e83a9db2d7bc6e27ba28cea83',
     '7c548b4bba0a2fcc3991eea1f89fa0216a26b3d4'),
    ('cell', 14, 1, None, '155f4d016c2d496ae42c978e23a412608d798a7a',
     '8599fbdc9adf6d6af133f47101ddef838b08e033'),
    ('cell', 7, 2, None, '287a0ee940d45e60e7f01d10d398df222f5251d3',
     'eebb08d134bb3d62bb3bf4bb5c2ca9880c784d32'),
    ('cell', 14, 2, None, 'af17ba0f350f427ce78b279b99369d6efada6098',
     'f6d2e2a52a31646868e716c08657fd65e451f911'),
    ('cell', 7, 3, None, 'fcfbaf88a8713f4ee8fdbeb08db9c6e8c98cf3d0',
     'e91e2131f29d1656b569d52b2814d29fd376e94a'),
    ('cell', 14, 3, None, 'e48492b75e541e6fc36051d966cff271a0a69bb2',
     '291407446feb061c3ee2f560e26e511a05e5b379'),
    ('wedge111', 9, 1, None, 'a58226fc027ee86069b3c6935516032e4b6f83da',
     '34118eafdefe6a4172721989b1c0fe92c9104c81'),
    ('wedge111', 18, 1, None, 'eb574bd7c39499b16649321323c107f69f49dccf',
     '1a01c6398402fec17a12dab8637508ae6a023db1'),
    ('wedge111', 9, 2, None, '5d951f099e7b8c7e507b71bc70ee7ab815565216',
     '29b868aa290badb81731dcc19319d301f9d504c5'),
    ('wedge111', 18, 2, None, 'ce5749aeb5fa930be069c906280eeaf405a8b60b',
     '14870d9c9684279339dcc80fc9010c280914c4a6'),
    ('wedge111', 9, 3, None, '64edd2cd005fd3af1fac92fd416295019d528219',
     'f166574cfbf8aae4c14061f296a955750f226087'),
    ('wedge111', 18, 3, None, '93c078ed67d3e6123b9fbc9ff00b4daba4022226',
     '4db7729db9b76d8730f4dadb5f8c0e8192ec9e9c'),
    ('wedge', 2, 1, None, 'd926ee5097ca621923b08753666f7781e2a44707',
     'daf8aed1e0d4c8f80d6032d9f302a3c81b0d97b2'),
    ('wedge', 4, 1, None, '24815e46c22530261b2ca81b4f1034d1539380b7',
     '59afb8bc328a261af14fddd42af19b4aa5853a2a'),
    ('wedge', 2, 2, None, '9f152c289e147217da0d2fa91acebab410663298',
     'd9dce64d3861f17c8e46384035850de81d8ea31d'),
    ('wedge', 4, 2, None, '0f0d9d226587f1cec8c866955be378779183572b',
     '5ae0a86e48d83595bfa58eea69db9e6b1f08f555'),
    ('wedge', 2, 3, None, '1a246eaac35cdcb422567be1096902046a85bd48',
     '227da4190f59931ecd73b5ad96ce5de7779b3dda'),
    ('wedge', 4, 3, None, '954a01c397b08e1be6b594e21a72885e18b553e4',
     '5b921a2d7ec79b1c0c28a1a91b3a02e49015e11d'),
    ('segment', 2, 1, None, '4e2d77c72d2e14aea448e210fd161af6023cf38e',
     '748e953c6035eb7cdb58f9f62a604e5d14619d18'),
    ('segment', 4, 1, None, '05d5f6309b3b28b650863f615f003dcc812b14d1',
     '031ea10977e84478f093c6c1144aab256cb4ab47'),
    ('segment', 2, 2, None, '40fc787ca6a5d21b64f308989ac32c0c1b2f4593',
     '0f716e0b6fa235f00994be73888c15e180f9775f'),
    ('segment', 4, 2, None, '5b66ac88fafefd92fc3da6fe72fcef7f4e292f9a',
     'b9621f7b8a684a07aec63d2484a269bb7c0908c4'),
    ('segment', 2, 3, None, '09371a333b101cac649da62e7fe1f0a6ea40a618',
     '470f903f2aa1ad4839d239751cbcca9e2a62900d'),
    ('segment', 4, 3, None, '51623b55cb04befc475d133b1bb73ab83b4179ec',
     '3bf1b5e25281d7ea3a2cbde3034eabeb84b5b94b'),
    ('arcs', 5, 1, 1, '7dfd0de4a5e8b7bdf64b442c4a347b3b9f1d4710',
     'a199064d00dc49a9f3f27f2c2d4a2a03f8eb7632'),
    ('arcs', 5, 1, 3, '06a412ff47dbbf1fa29c23ac5eeddc6af63f7c18',
     'de3c0ec2c9d7209aae4d7f1f232cace6bba757f0'),
    ('arcs', 5, 1, 4, '52d85df508614970450c0a5fffa9fb88a835b6c8',
     '025a8e490769d4f8c3bfd80743bf43f787a877fe'),
    ('arcs', 10, 1, 1, '805031a5816edc2d75f898745d6c16e848070e54',
     '7a7d04a8291e924f2eb22eb550d6fa9f98a8009c'),
    ('arcs', 10, 1, 6, '94690585a484019178c76c96c7232736b8122bf0',
     'db82d038ab432be7a1fec7ddebb732e2db0c1859'),
    ('arcs', 10, 1, 9, '67932ebc80210c6c2d87c362650bce36f669d80e',
     '14d19216235c55742a39032365517f9a0c379189'),
    ('arcs', 5, 2, 1, 'a1d7429f4d4e85c1cedcbe9e0ed4de16f6d68f18',
     '62b61b68938fc267f4bb6b4f4fd30b82807da779'),
    ('arcs', 5, 2, 3, 'e5f58a90e76c2ef7eb9002c4bf20b63e4e8bd0cd',
     '4a4ac8e6c2a52f617ecbd016015169e2a36988ea'),
    ('arcs', 5, 2, 4, '3d5a13db8a2584f8f6f94c7a2b69df5dd23c8c13',
     'ecbb00ec252fecce43f0ce8b5cce21601526f4f4'),
    ('arcs', 10, 2, 1, '7e11904244c59f39754b4628a42763d2183fadfe',
     'f64d9fc24e2b9102977a6ed352769a993b7efb1b'),
    ('arcs', 10, 2, 6, '428a2665f2a00d7bb9a8abe8f9020c958022039e',
     '938ca6ccf4622b9f922aabe6bdc712dd3e8ae0b7'),
    ('arcs', 10, 2, 9, '0ac5c6ce6bc78eb28d2d7f930d2625ee7a867e2f',
     'c1df6c791ba5b63c89e584e1c4185057b3a9bb56'),
    ('arcs', 5, 3, 1, '9155a3a03a4c0cb6a1ced999048f0584780725e4',
     '7318dfcc2e7778d620f5e0917d73daf0998368ad'),
    ('arcs', 5, 3, 3, '20f38160222d2435464b5dd70e8e974e81d9974f',
     '29a8cf15e4fc4bd2a9026e5c5a04f22e339b9a96'),
    ('arcs', 5, 3, 4, 'b6ef4061fa6a684bda50da7e586e70ad57289d32',
     'c94aa845ad571b3ff541ffe342f3aaee46477d3e'),
    ('arcs', 10, 3, 1, '487d94e28a77818800492e667b46c66ecee8f56b',
     '43ed67466df7362aaa38e0414230735db4f70a50'),
    ('arcs', 10, 3, 6, '42d03cd624bf3b363be4bc6aee167352b4d090f3',
     '98c7900b4ee30e180dd0d7630d54500ab33fe94f'),
    ('arcs', 10, 3, 9, '001460686b7f9d179a3658e07f62723b75628a63',
     'a9746447b18309e630fe816f8e7b6322cb6776df'),
    ('lline', 4, 1, None, 'c4e8e2b052848a4795239915f2bfece197de9d39',
     'c850fe8d34767c9522ea25b3edc30b6e5b8d7dbb'),
    ('lline', 8, 1, None, '220a69ab8069d23ca79881a9b410825d70977caf',
     'df808446179cda7cb8486ee69c669f2c3ba02eac'),
    ('lline', 4, 2, None, 'd1c60eff01e228511876aa0dfa55ee9ed9be9d41',
     'ad7e0cc9cd8a3bee0923d0106e8c1dbc722a0b62'),
    ('lline', 8, 2, None, '8c8118414f1b355447a6bb40fab4138dac711039',
     'b86f221aee9348d7f71ce95a5e79f54b7527c3c3'),
    ('lline', 4, 3, None, '933666937554d9f4a78fb049605715a963b369a7',
     '188376ad932b6808aa867800b21ad760c3923c68'),
    ('lline', 8, 3, None, '693f757287733e8d09b484f523cc487c000b35a3',
     '7dc28842c67b15733e398fbc8450fca52bb62a89'),
]


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(argv) == 0
    return buf.getvalue()


def _argv(kind, n, seed, k) -> list[str]:
    return ["solve", kind, "--n", str(n), "--seed", str(seed)] + ([] if k is None else ["--k", str(k)])


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "kind,n,seed,k,object_digest,digest",
    GOLDEN,
    ids=[f"{c[0]}-n{c[1]}-s{c[2]}" + (f"-k{c[3]}" if c[3] else "") for c in GOLDEN],
)
def test_envelope_digest(kind, n, seed, k, object_digest, digest):
    out = _stdout(_argv(kind, n, seed, k))
    assert _sha1(out) == digest
    assert _sha1(json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n") == object_digest


def test_golden_covers_every_kind():
    assert {c[0] for c in GOLDEN} == set(cli.SOLVE_KINDS)
    assert len(GOLDEN) == 48


@pytest.mark.parametrize("argv", [
    *(_argv(*next(c for c in GOLDEN if c[0] == kind)[:4]) for kind in cli.SOLVE_KINDS),
    *(["gen", kind.value, "--n", "5", "--seed", "8"] for kind in GenKind),
], ids=lambda argv: "-".join(argv[:2]))
def test_instance_line_is_the_compact_payload(argv):
    out = _stdout(argv)
    env = json.loads(out)
    line = f'  "instance": {json.dumps(env["instance"], sort_keys=True)},'
    # every other value as json.dumps(indent=2) lays it out
    indented = json.dumps({**env, "instance": None}, indent=2, sort_keys=True) + "\n"
    assert out == indented.replace('  "instance": null,', line)


@pytest.mark.parametrize("kind", cli.SOLVE_KINDS)
def test_old_layout_verifies_and_renders(tmp_path, kind, capsys):
    # a file as envelopes were written before the instance went compact
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    k = ["--k", "2"] if kind == "arcs" else []
    assert cli.run(["solve", kind, "--seed", "1", *k, "--verify", "--out", str(new)]) == 0
    old.write_text(json.dumps(json.loads(new.read_text()), indent=2, sort_keys=True) + "\n")
    assert cli.run(["verify", "--in", str(old)]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    pictures = [tmp_path / "new.svg", tmp_path / "old.svg"]
    for src, pic in zip((new, old), pictures):
        assert cli.run(["render", "--in", str(src), "--out", str(pic)]) == 0
    assert pictures[0].read_text().startswith("<svg ")
    assert pictures[0].read_bytes() == pictures[1].read_bytes()
