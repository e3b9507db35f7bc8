"""The golden configs: every output of ``subforge run --export dot,json``
pinned by sha256.

Each config is run in process from a fresh directory, with ``--out out``
and, for a presentation file, a relative file name, so that stdout and the
report's config echo name no temporary path.  Per config the manifest
holds the exit code and the sha256 of every export file, of report.json
less its timings (re-dumped as the exports are) under "report", and of
stdout under "stdout".  A change that alters an output re-records its
digests and says why in CHANGES.md.
"""

import hashlib
import json

import pytest
from reference import ODD_RELATOR

from subforge.cli import main

# presentation files the configs read, written into the run's directory
FILES = {
    "odd.txt": f"gens: a A b B\nrelators: {ODD_RELATOR}\n",
    "bbaab.txt": "gens: a A b B\nrelators: BBAABabAAbABA\n",
}

# config id -> (arguments after "run", exit code, digests).  surface2 R=5
# at delta 1.0 and 0.5 are the only small configs with horizontal edges
# (8, and 56 in 8 edge-subdivision classes; the cone lemma fails at 0.5,
# exit 2).  At R=5 delta 0.5 and R=6 delta 1.0 neither graph is the
# geodesic tree, so QI searches both and its constant is pinned here.
# surface2 R=6 delta 0.5 (exit 2) fails axiom 4, the acceptor and the cone
# lemma, and pins the domains those verdicts report when they fail.
GOLDEN = {
    "bbaab-r9": (
        ["--file", "bbaab.txt", "--radius", "9"],
        0,
        {
            "acceptor.dot": "7108ec69a3adfb10f5fccb6d691d7c3f2e147060238a4808053b81ab94628696",
            "acceptor.json": "3aaa8a618a6e992c440ccd254271418065498fd1183116a24355f9bb4b70c2e2",
            "gamma.dot": "22a9482bc05e2746053623b97df3eda24a25b14e98fe4ce3d63935546100f403",
            "gamma.json": "060e5a4191af012ab71ced9d923a327ec4d8c851368033f88acfa37100ca4368",
            "report": "845114f2c450cceb937ae32a43f7ac329d5231169d6b8cb8c62a292a1d570c22",
            "stdout": "379c6aebc48a286f3057e07d61a91dcfcf6d6f0bf27bfe107e8e3a294bc98676",
            "subdivisions.dot": "3d40c1c0529ae3df9da336be78edf2ed30b20a44e5751a8bf7689bd29bed81a4",
            "subdivisions.json": "0c2edb52f7dacb1ce668ad3041b3fc7d0d12e2cdc54aa92dfc1f5e837a7379c5",
            "xi.dot": "d2d7e19265fed711c45bc757b72ad0f8ee2827021acc9debda215069531663e2",
            "xi.json": "4e1acd0437c513882fb8af1eea9003a9088053131f0897b7682bc23dc7ea1911",
        },
    ),
    "f2-r8": (
        ["--preset", "f2", "--radius", "8"],
        0,
        {
            "acceptor.dot": "c7e5d30a90f8ec3682378e22ab648cc73f049c492cd5144f66ffc3f9aa6a2373",
            "acceptor.json": "532cae5368d72bb8d1aec24b38cd8a73509ca10d3a5e8451f949e6e567c9a78d",
            "gamma.dot": "24da75b1f868d1279f6296ae01f21c58940b5f92b09202131853d64d320b3abc",
            "gamma.json": "d76ddf706ec519d5f2c5edb3e22767247bdcc909992e224e3a00ef0f8b15096e",
            "report": "2df8bd8b4ac6fa5743e9e4506d6706b5e2aff6780297505054ff24739e85e332",
            "stdout": "379c6aebc48a286f3057e07d61a91dcfcf6d6f0bf27bfe107e8e3a294bc98676",
            "subdivisions.dot": "65a78bf0d20abacf24b6635ce01b0b43a16a4b4f3f7727971c45b5c4d625a113",
            "subdivisions.json": "52447d698cf474dbd9b5f2d0e8f917ad52586cf117876163474aa55a9eff14e1",
            "xi.dot": "fa5120c67d92f78d6ac42b1083932289ad08b9a8de56582d13012b1ed172c6ae",
            "xi.json": "94aefba04512a28d59870fa975ddd70916e3fb428b8184204feafb01dfa8112a",
        },
    ),
    "odd-r4": (
        ["--file", "odd.txt", "--radius", "4"],
        0,
        {
            "acceptor.dot": "c7e5d30a90f8ec3682378e22ab648cc73f049c492cd5144f66ffc3f9aa6a2373",
            "acceptor.json": "532cae5368d72bb8d1aec24b38cd8a73509ca10d3a5e8451f949e6e567c9a78d",
            "gamma.dot": "a4d09a6ce9f59ec874aad84d7ca8b147ce7d1f32db8a78022b129d773f355b0d",
            "gamma.json": "07684efdbc08e07c05f3147350ce9f281ed9d0e1ac730e1fa2bda17b2bd135d5",
            "report": "d6ca3b9818316f0d3f3be4f320e60adad0239990d25f8c2c5e3ff4114e68d6f9",
            "stdout": "379c6aebc48a286f3057e07d61a91dcfcf6d6f0bf27bfe107e8e3a294bc98676",
            "subdivisions.dot": "65a78bf0d20abacf24b6635ce01b0b43a16a4b4f3f7727971c45b5c4d625a113",
            "subdivisions.json": "52447d698cf474dbd9b5f2d0e8f917ad52586cf117876163474aa55a9eff14e1",
            "xi.dot": "d1a63bf5cadba58c323da8ced0ecf45b5246f605a1dcbf74790bdf1ca515406c",
            "xi.json": "0f0cc512d2ee4f916a90f8ec4058e3182f52c7ccde1f095eaf81a1712aabf4e0",
        },
    ),
    "surface2-r4": (
        ["--preset", "surface2", "--radius", "4"],
        0,
        {
            "acceptor.dot": "8f56a5061d2737a52de87fc2dc0ae2d87c3fccbe3058b207e71f6fdcba431018",
            "acceptor.json": "08eebb24b2a6fb32814bd4da78fc2bf684c503122bbc7a4f60ef4ab5134d8ceb",
            "gamma.dot": "cd67b871edb2c32e974890a3ccb5e09a55484052fa71cfc45879647299251d0c",
            "gamma.json": "43d1bd76a49bf902734197c78ce15c84548194177290a671c62984a71a362ff4",
            "report": "2222632d80210c07a532d61e7b7705f98292286f878104d9890457c32f0f94ba",
            "stdout": "379c6aebc48a286f3057e07d61a91dcfcf6d6f0bf27bfe107e8e3a294bc98676",
            "xi.dot": "9ae66b276dd96a0cae51b463e61f38ea85c0ad485bb8154b5b27ac6e06041104",
            "xi.json": "a962c296453ec5252721ec63d2f289f1eadbdc2fb8d98a26e8e238069ba31c05",
        },
    ),
    "surface2-r5": (
        ["--preset", "surface2", "--radius", "5"],
        0,
        {
            "acceptor.dot": "8f56a5061d2737a52de87fc2dc0ae2d87c3fccbe3058b207e71f6fdcba431018",
            "acceptor.json": "08eebb24b2a6fb32814bd4da78fc2bf684c503122bbc7a4f60ef4ab5134d8ceb",
            "gamma.dot": "60b0a9f8f6635c61230e191bf552cffe18311e3c751e704d43bc2237087caad8",
            "gamma.json": "b656e64cf0ca999eceb24a3c36a9894f03f5c422a2b8ef51bfa344ce7701716e",
            "report": "9c05f8db0131883b5461bc3544273de8bbe5151552c58a8a7e172cf4b6b55378",
            "stdout": "379c6aebc48a286f3057e07d61a91dcfcf6d6f0bf27bfe107e8e3a294bc98676",
            "xi.dot": "996707badb93847c91968d652501c64c93f14f3e7c6ca6434acefba95481684b",
            "xi.json": "5d08f8ff3270a245cb54bd5a2f8a7451dcd9e1bced1f6419695d40838b08099b",
        },
    ),
    "surface2-r5-delta0.5": (
        ["--preset", "surface2", "--radius", "5", "--delta", "0.5"],
        2,
        {
            "acceptor.dot": "272a464d1778c451931827ad6543db9b90ae500032799abb44d6bee249d947a3",
            "acceptor.json": "448e59179abae5df0991c233e05eaedae33b9365d6cfcd5f7483e1771e970086",
            "gamma.dot": "60b0a9f8f6635c61230e191bf552cffe18311e3c751e704d43bc2237087caad8",
            "gamma.json": "b656e64cf0ca999eceb24a3c36a9894f03f5c422a2b8ef51bfa344ce7701716e",
            "report": "22e8ab6b1f46cc5b6989e014900c98331b85fcaec41119ccb18c62e5a8d4bc34",
            "stdout": "d2d07b5b63adab365c3449dffece1e150c67c8f23b39531c1d1070065b0531c9",
            "subdivisions.dot": "3509a241d736666eb0257cf9918b41b10daba05aa56c4cc61f568a0eec126ac1",
            "subdivisions.json": "5a680f6f9a69518c9dbd64270f2e5814741b928d781bdfb6de0ee8ef5a76bbd9",
            "xi.dot": "56a3449d03da9ab0e35f5061a5ad5732de1689ca07ac0af45307d9fffd85dbb0",
            "xi.json": "4be42cad8f4938958b1b01d0b0a9645109a040bf1479c5e3c10d0a503e34c4b7",
        },
    ),
    "surface2-r5-delta1.0": (
        ["--preset", "surface2", "--radius", "5", "--delta", "1.0"],
        0,
        {
            "acceptor.dot": "ec9f4821f6e7e840a2b7044446a39a8f1cbf943da28a5ab0566dcbac01afc207",
            "acceptor.json": "32cb0698e747519bb151cba3a1a3e439c6884da5f328bd0970252d88826a8035",
            "gamma.dot": "60b0a9f8f6635c61230e191bf552cffe18311e3c751e704d43bc2237087caad8",
            "gamma.json": "b656e64cf0ca999eceb24a3c36a9894f03f5c422a2b8ef51bfa344ce7701716e",
            "report": "60f41890d902cf150816e14d791dda5471ff6062ad0c70265226e82199573703",
            "stdout": "379c6aebc48a286f3057e07d61a91dcfcf6d6f0bf27bfe107e8e3a294bc98676",
            "subdivisions.dot": "04b041a8b4960e23bfff2688931e12010f665fa4c4cb0333e0e59cfaebd412f7",
            "subdivisions.json": "f2c3eee857623748cfea0163da98f5477d59c845e23e4d544e8f9a2619100c78",
            "xi.dot": "10b6975d00e93726b0afce83b338fdaf81fa7f1ab904907f546f83c63024c2dc",
            "xi.json": "6b5971df227394fc6b60113e156b3f78f1337c34223b7f61bb9416e9380e1a77",
        },
    ),
    "surface2-r6": (
        ["--preset", "surface2", "--radius", "6"],
        0,
        {
            "acceptor.dot": "d1696e812dda49d198286892c9eca0455f81ad2c714932b225db7f0a0d743a27",
            "acceptor.json": "5f5be24e936545d74c2ab275281e5b346c8dfe1c2d6a773cc25a7d2f021e916c",
            "gamma.dot": "a4c84da5db9e570568ee549d0b071fd66d3ec377252f32a8017e2f7257703938",
            "gamma.json": "92f5676728690fb57a6e41a29c87fb6d56d406cc6fc121e6107c45bfb111caf4",
            "report": "0f3ba850c7d6266a6a2cb22aeeafe9933187754c6d835f3a1dee8ca2c06e51bb",
            "stdout": "379c6aebc48a286f3057e07d61a91dcfcf6d6f0bf27bfe107e8e3a294bc98676",
            "subdivisions.dot": "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
            "subdivisions.json": "69f174fd4e3f77521bdc758baf204122ab19f291ea65581096c7f6f9bf3db56a",
            "xi.dot": "9808c466007a0f166199766cbf3a9952e673548cd42c28937bfd4b8a47a3a74b",
            "xi.json": "10f49d899bcda7d3ad902755e485240f0aa17cee266ddf0621b830b587cd6a02",
        },
    ),
    "surface2-r6-delta0.5": (
        ["--preset", "surface2", "--radius", "6", "--delta", "0.5"],
        2,
        {
            "acceptor.dot": "0dac7cb2dc662d588ab7ec7c470ec259ca423b664e42fc609d450e35fdfccbbc",
            "acceptor.json": "638d11a1f668d5a6187d205eba6fbfcce2f5d962b4016eb7ada731a811c6bcc9",
            "gamma.dot": "a4c84da5db9e570568ee549d0b071fd66d3ec377252f32a8017e2f7257703938",
            "gamma.json": "92f5676728690fb57a6e41a29c87fb6d56d406cc6fc121e6107c45bfb111caf4",
            "report": "aac4e94891c5550dc73027ae9ebf32e2c42331b03435c474c7e6e2e568d92299",
            "stdout": "7bc878056f29d222defa61e9abe84712c0a3811aefbeec14ca04ce4440daecac",
            "subdivisions.dot": "cca86150d9732c7cd3511e9e5ca25f0e9e93df68cf41af27b84bf5f5e2b3a1b1",
            "subdivisions.json": "29f8cf182bd54bf2bf85ddaef5788c1d472ae9c1cdbe8713b9b467af3d0cf316",
            "xi.dot": "242975d37e7f631456b3a899e6e5c4b53041ce57a1540f78e2e772a624f517b7",
            "xi.json": "4e8de38656e9d698612f958c1bb9adee8503d9a08004801c2138273047d819ba",
        },
    ),
    "surface2-r6-delta1.0": (
        ["--preset", "surface2", "--radius", "6", "--delta", "1.0"],
        0,
        {
            "acceptor.dot": "e78637c059eba6e3a960f34f15ba536497f3abb3bf626bf6c142a28afea8a385",
            "acceptor.json": "2381c03604adb492a8ab881854574925ddd52e51b0e99c7be8295fb183a5c119",
            "gamma.dot": "a4c84da5db9e570568ee549d0b071fd66d3ec377252f32a8017e2f7257703938",
            "gamma.json": "92f5676728690fb57a6e41a29c87fb6d56d406cc6fc121e6107c45bfb111caf4",
            "report": "4a1f6691bde6d1a291dfdd4993cc586881244ec6678e70388ee576acbb6eae22",
            "stdout": "379c6aebc48a286f3057e07d61a91dcfcf6d6f0bf27bfe107e8e3a294bc98676",
            "subdivisions.dot": "3509a241d736666eb0257cf9918b41b10daba05aa56c4cc61f568a0eec126ac1",
            "subdivisions.json": "5a680f6f9a69518c9dbd64270f2e5814741b928d781bdfb6de0ee8ef5a76bbd9",
            "xi.dot": "c472dac18c2743e888972d37bf0ab55f7efbba1487a3d97d21d7223b4c70c002",
            "xi.json": "0fca2509476d57879ec191a20c1a9218bdd87e81b05201952cdd2f3f823dc874",
        },
    ),
    "z-r8": (
        ["--preset", "z", "--radius", "8"],
        0,
        {
            "acceptor.dot": "4f1306d4fc85e29090021067999d66ec978c54d2d0a841aac05cc713ded8b9e7",
            "acceptor.json": "4fa3308675e4623c97f2e14d147bcb507855ec6702b88c5416ce03bc00193749",
            "gamma.dot": "44560e2470e7d30aaedd6c6c0066cfb4bf467b6d62725b282dd0e32257984c17",
            "gamma.json": "29c70fec328abc74bdf7efbd3983cd3aeaf9fc93778d3c9c1b02bd8fa4b89216",
            "report": "dfa94ea82fa8a397cb2d19a16d1b0025a8cb55d0f44243fd52f2e58864442196",
            "stdout": "379c6aebc48a286f3057e07d61a91dcfcf6d6f0bf27bfe107e8e3a294bc98676",
            "subdivisions.dot": "565105df80a18e03bacb8b9cdc40bd6ef62ab148db770ad412e8f828812190a3",
            "subdivisions.json": "f5f633f4b400a2849ddbddfd20636476dac7acd0990ec24ddb779a86c0a9fe09",
            "xi.dot": "5324c36c38a98cc594ed6868c47d010013ccd64194be015de86015d20b31900f",
            "xi.json": "f51502d7817348e346eae4962e9e0f92b10630db4d5ab7e38a91bd7fd02ca9ff",
        },
    ),
}


# the domains of the two language verdicts on three configs; surface2 R=6
# delta 0.5 decides 520 (class, letter) slots with 16 conflicts
DOMAINS = {
    "f2-r8": {"acceptor_consistent": 20, "cone_lemma": 1_452},
    "surface2-r5": {"acceptor_consistent": 0, "cone_lemma": 0},
    "surface2-r6-delta0.5": {"acceptor_consistent": 520, "cone_lemma": 3_120},
}


def run_digests(args, where, monkeypatch, capsys):
    """(exit code, digests, report) of one golden run made in ``where``."""
    monkeypatch.chdir(where)
    for name, text in FILES.items():
        (where / name).write_text(text)
    code = main(["run", *args, "--out", "out", "--export", "dot,json"])
    stdout = capsys.readouterr().out
    out = where / "out"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir() if p.name != "report.json"}
    report = json.loads((out / "report.json").read_text())
    del report["timings"]
    digests["report"] = hashlib.sha256((json.dumps(report, sort_keys=True, indent=2) + "\n").encode()).hexdigest()
    digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return code, digests, report


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_config_outputs_are_pinned(name, tmp_path, monkeypatch, capsys):
    args, code, digests = GOLDEN[name]
    got_code, got_digests, report = run_digests(args, tmp_path, monkeypatch, capsys)
    assert (got_code, got_digests) == (code, digests)
    # every verdict says what it quantified over, and every failure names
    # its counterexample
    checks = report["checks"]
    assert len(checks) == 12
    for verdict in checks.values():
        assert type(verdict["domain"]) is int and verdict["domain"] >= 0
        assert verdict["passed"] or verdict["counterexample"] is not None
    for check, domain in DOMAINS.get(name, {}).items():
        assert checks[check]["domain"] == domain, check
    if name == "surface2-r6-delta0.5":
        assert checks["acceptor_consistent"]["note"].startswith("16 conflicts;")
