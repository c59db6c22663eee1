"""Byte pins: the SHA-256 of the stdout of the catalog commands.

Refactors of the kernel, the derivations or the limit code must leave
every CLI document byte-identical.  Run-to-run determinism alone would
not catch a change that is stable but different, so each command below
is pinned by the digest of its exact output.
"""

import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest

from qheun import lax
from qheun.cli import BIND_FORMAT, run, write_equation
from qheun.climit import preset_names
from qheun.lax import KNY_FAMILIES, MURATA_FAMILIES, derive_equation


def _stdout(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin)
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = saved
    assert code == 0, err.getvalue()
    return out.getvalue()


_ROWS = ([("murata", f) for f in MURATA_FAMILIES] +
         [("kny", f) for f in KNY_FAMILIES])


def _derive(catalog, family, *extra):
    return ["derive", "--catalog", catalog, "--family", family, *extra]


def _cases():
    """Label -> (argv, argv of the command whose stdout feeds stdin)."""
    cases = {}
    for catalog, family in _ROWS:
        cases[" ".join(_derive(catalog, family))] = (
            _derive(catalog, family), None)
    for family in ("E3a", "E2a", "A1w8"):
        argv = _derive("kny", family, "--no-gauge")
        cases[" ".join(argv)] = (argv, None)
    for family in ("A5", "A6"):
        argv = _derive("murata", family, "--variant", "alt")
        cases[" ".join(argv)] = (argv, None)
    cases["verify"] = (["verify"], None)
    for preset in preset_names():
        cases["limit --preset " + preset] = (["limit", "--preset", preset],
                                             None)
        argv = ["limit", "--preset", preset, "--crosscheck", "1/100"]
        cases[" ".join(argv)] = (argv, None)
    for catalog, family, factor, extra in (
            ("murata", "A5", "x - a2*t", ()),
            ("kny", "D5", "z - n3", ()),
            ("kny", "E3a", "q*z - n4", ("--no-gauge",))):
        label = "gauge --kind linear --factor %s < %s" % (
            factor, " ".join((catalog, family) + extra))
        cases[label] = (["gauge", "--kind", "linear", "--factor", factor],
                        _derive(catalog, family, *extra))
    for catalog, family in _ROWS:
        for at in ("zero", "infinity"):
            cases["exponents --at %s < %s %s" % (at, catalog, family)] = (
                ["exponents", "--at", at], _derive(catalog, family))
    return cases


_CASES = _cases()

_PINS = {
    "derive --catalog kny --family A1w":
        "508f5b88df28ed396878d155369c9ae80f10bc1f2399214e7b01366308aa08cc",
    "derive --catalog kny --family A1w8":
        "6eb97d874b3ca439fe3f3f09ac663495c3704661e6d96f94898fe160b5e8a0bb",
    "derive --catalog kny --family A1w8 --no-gauge":
        "bf9eec4e4da7e19f99fefad188abea02b1d1ac55363c8c9968a28db110debd1f",
    "derive --catalog kny --family A4w":
        "7b946b154cb32e7413a8433e0f1a9e251145860cf9b0637f2ba7b2b7fd7aed1a",
    "derive --catalog kny --family D5":
        "fd5bb093abdf7b04b731c5a3246ba7f23ecaf7bd26cfc7bf0911e424b720890a",
    "derive --catalog kny --family E2a":
        "e34d791d06490557eb90595c6aabaeb5c053877e76b43b62fcc9d128257b0dcf",
    "derive --catalog kny --family E2a --no-gauge":
        "95fb97ee0e3935800be72cd4417b37f95bdc4ef96dd7aa84134a147c2b2f54be",
    "derive --catalog kny --family E2b":
        "41c682ac5dc2a93d3432c321bd09e851a5ad722cb616489bac37ea2c6ea8f742",
    "derive --catalog kny --family E3a":
        "586e5e2c2bc0f3f941fa6e8c7454de7c1d4d508028f7f340215511c8f0438dfe",
    "derive --catalog kny --family E3a --no-gauge":
        "98393584a3a9b9cca50196adc960ac667e281d834a4f7dd3f50f653ebe2fad31",
    "derive --catalog kny --family E3b":
        "ed1c6b7c6aea2f5635a76053db6492658a246d2d0f890b9950757ca1ce28ce7c",
    "derive --catalog murata --family A4":
        "5125003f9284ed13fc08234a588dd37c3a31ca83690603b1ff419ab6e4a2f173",
    "derive --catalog murata --family A5":
        "4c2da89f70dccb51b172de85a7ff9dea99143f9e7904bf4a838df1187c7b066e",
    "derive --catalog murata --family A5 --variant alt":
        "ec8237be85bf553b33fcf3c86c3ebb8b6c7bbf98d83396e17c9c984917f978c5",
    "derive --catalog murata --family A5s":
        "ffd0a660961685b887c7df83a60363c61f3b15f2ac43ac9d1d8682aa9367cd21",
    "derive --catalog murata --family A6":
        "bbe047ff82442a72ba9f6d1173e267799d92dffc1511621190263e7b649a28f7",
    "derive --catalog murata --family A6 --variant alt":
        "a67789bd5106dd1816b77620bdb81e879eed198faa3f76a1a3cdbd03acdf5747",
    "derive --catalog murata --family A6s":
        "badde2cbe5325470c979118ee7904e5a156b354fe470b423e0c6fa43f2792187",
    "derive --catalog murata --family A7":
        "d75e8458e02d7555c28002080e8509a8e9feb98aeb44a7364ef051dbbb694889",
    "derive --catalog murata --family A7p":
        "5311e54bd1cd93359e7a68e9e8efba39351f4cb7c58e4a6bbc9df046c875db5e",
    "exponents --at infinity < kny A1w":
        "d8bc894508b20d885f3093cd5db3d250229b9ce9c9493286d8f2d39d2abe3661",
    "exponents --at infinity < kny A1w8":
        "a6ef11eb8875d71c0494fa1ac01879ca3646f3342385903fc49d4bddbacad296",
    "exponents --at infinity < kny A4w":
        "0cedeb8f58302594226d82758bb42808c9bc440705c0c89ff4a948e79522d3fc",
    "exponents --at infinity < kny D5":
        "60322fb6289da93d5ffd29c414198402d4b1dfa0051ca824ed9d01c5a2c47c80",
    "exponents --at infinity < kny E2a":
        "a6ef11eb8875d71c0494fa1ac01879ca3646f3342385903fc49d4bddbacad296",
    "exponents --at infinity < kny E2b":
        "0cedeb8f58302594226d82758bb42808c9bc440705c0c89ff4a948e79522d3fc",
    "exponents --at infinity < kny E3a":
        "a6ef11eb8875d71c0494fa1ac01879ca3646f3342385903fc49d4bddbacad296",
    "exponents --at infinity < kny E3b":
        "0cedeb8f58302594226d82758bb42808c9bc440705c0c89ff4a948e79522d3fc",
    "exponents --at infinity < murata A4":
        "700ddfe7df55277743f8847cb4650d0183020344347af77cd7cd0fbead144f74",
    "exponents --at infinity < murata A5":
        "1faf0f74abf8b631b53e6e1242cdbbb570b3e3183aa380ca78f0076924bf9832",
    "exponents --at infinity < murata A5s":
        "700ddfe7df55277743f8847cb4650d0183020344347af77cd7cd0fbead144f74",
    "exponents --at infinity < murata A6":
        "1faf0f74abf8b631b53e6e1242cdbbb570b3e3183aa380ca78f0076924bf9832",
    "exponents --at infinity < murata A6s":
        "2ac7674cbb5d878c0746ae50b332b0015a30177252cdf1ea7fa75fca71f2d051",
    "exponents --at infinity < murata A7":
        "700ddfe7df55277743f8847cb4650d0183020344347af77cd7cd0fbead144f74",
    "exponents --at infinity < murata A7p":
        "700ddfe7df55277743f8847cb4650d0183020344347af77cd7cd0fbead144f74",
    "exponents --at zero < kny A1w":
        "4971771b6779b2b054e42c840ce8e1c3175a70142f4927e4657659e52838d179",
    "exponents --at zero < kny A1w8":
        "8b539e49b17b770f332ad37c321147a52e918bdbdb467e6db3538b2a9b65f2a5",
    "exponents --at zero < kny A4w":
        "b98ed254bcb41189bc5b8364f693e04498da09e71d58a9fc65d8534ed886f6c8",
    "exponents --at zero < kny D5":
        "f764ad11bf3ad5e8f377ab1a1b58f393e7064e53fd5751e77027c68495a34abf",
    "exponents --at zero < kny E2a":
        "e0116a9be467e9bef8cae03cf7c98f564eade6bbe83546df2bd9d123b2907f4d",
    "exponents --at zero < kny E2b":
        "4971771b6779b2b054e42c840ce8e1c3175a70142f4927e4657659e52838d179",
    "exponents --at zero < kny E3a":
        "7dbfbd4980d55c6db9732d6e72ff222518253fb63f816b30720b420fc01d4089",
    "exponents --at zero < kny E3b":
        "fe1b4ee76cba3268dd6d8e4bc46599636925882752aad88f4605eb7fa4dc1e16",
    "exponents --at zero < murata A4":
        "d88d52a0b942830d32de551e40627bf8a792a83085522085a3ca585dab80a50d",
    "exponents --at zero < murata A5":
        "33e2f66672ade41643c120b10bcf9463a2a012a946eed93c523b88da2061beae",
    "exponents --at zero < murata A5s":
        "33e2f66672ade41643c120b10bcf9463a2a012a946eed93c523b88da2061beae",
    "exponents --at zero < murata A6":
        "33e2f66672ade41643c120b10bcf9463a2a012a946eed93c523b88da2061beae",
    "exponents --at zero < murata A6s":
        "82a46931be2412d5b1ecfcaf790ad19bdf52a665faec34830a32138511e3c796",
    "exponents --at zero < murata A7":
        "6883ac9d81e1f951cdb05d16b17a3e3405b43b5e2550701b9bdddb4bd82946e3",
    "exponents --at zero < murata A7p":
        "636e27edc8c7c607783673d65a61a0fc71022fcf918957adbae3eed7fe37fe8f",
    "gauge --kind linear --factor q*z - n4 < kny E3a --no-gauge":
        "31e8555f7df3c0a13338b9bce005a28672225c4eb3221bea7c6cf7d07f9055b7",
    "gauge --kind linear --factor x - a2*t < murata A5":
        "c4f0b949c13b951943db75e66701f4a72766470190e0c41286fecb1155b5a38b",
    "gauge --kind linear --factor z - n3 < kny D5":
        "2ed589b242579c4648bcea93054bd6a5f1a8024e60dfacca61fd6f28f600d785",
    "limit --preset biconfluent --crosscheck 1/100":
        "f8d62cc51d10ed5e67a3906c6ed7ea86e4c61239bfe882c67802b8e486fa734d",
    "limit --preset confluent --crosscheck 1/100":
        "c615db21c3153cc8ec33eb1311592fb40d4b3ab42e1865535105f8a21a6156d4",
    "limit --preset doubly-confluent --crosscheck 1/100":
        "c334774c519db173c5e6b7e9f10a62b7e186037dbff7e4514420795e48b6b697",
    "limit --preset heun --crosscheck 1/100":
        "440cc5a36a013c6790a9482e3c4364e5887c712aa1524dc557a5013330b858a6",
    "limit --preset biconfluent":
        "53e5d834a7556a6801c54e65fc4186a877b4f75b14d6a892a346dff3d255cf2d",
    "limit --preset confluent":
        "b2815578462805875c83c1e02bc269dec4cb4b131bf56d4c45dce99a62648b1b",
    "limit --preset doubly-confluent":
        "56067683410519ac7086f46d50bc632bd92a0b28ef8a5f6371d19fc566be6bfb",
    "limit --preset heun":
        "02356afea197d67946dc6b8328370934b3ffdc39f3550a8094109abacb03fd53",
    "verify":
        "99f07eaadfa8eab8de94a83afd406efd60041704b837ff56d0a1dcd496f28303",
}


def test_every_case_is_pinned():
    assert sorted(_PINS) == sorted(_CASES)


@pytest.mark.parametrize("label", sorted(_CASES))
def test_stdout_bytes(label):
    argv, feed = _CASES[label]
    stdin = _stdout(feed) if feed else ""
    digest = hashlib.sha256(_stdout(argv, stdin).encode("utf-8")).hexdigest()
    assert digest == _PINS.get(label)


# -- series ----------------------------------------------------------------
#
# ``series`` on the murata A4 row: one binding with the rational origin
# exponents 1/2 and 3, expanded exactly, and one with the irrational
# s = sqrt(2) - 1, where the coefficients and the residual are floats.

_SERIES_PINS = {
    "series --terms 60 --residual-at 1/10 < murata A4, s = 1/2": (
        {"q": "1/3", "k1": "2", "a1": "5", "a2": "1/2", "a3": "1/3",
         "t": "1/7", "th1": "-5/2", "th2": "-15", "k2": "-45/2", "m": "1"},
        ["--terms", "60", "--residual-at", "1/10"],
        "065ae2213ffe127b8763ffc465aa4653a03790d952b3c4c7fcb9482876313976"),
    "series --root 1 --terms 40 --residual-at 1/10 < murata A4, "
    "s = sqrt(2) - 1": (
        {"q": "2/3", "k1": "2", "a1": "1", "a2": "1/2", "a3": "1",
         "t": "1/7", "th1": "1", "th2": "1", "k2": "1", "m": "3/2"},
        ["--root", "1", "--terms", "40", "--residual-at", "1/10"],
        "b5efa2a544d39b208cc26e26c480f5881ca6147c6e8533fe8da663e4c086fd32"),
}


@pytest.mark.parametrize("label", sorted(_SERIES_PINS))
def test_series_bytes(label, tmp_path):
    bindings, flags, pin = _SERIES_PINS[label]
    path = tmp_path / "bind.json"
    path.write_text(json.dumps({"format": BIND_FORMAT, "bindings": bindings}))
    text = _stdout(["series", "--bind", str(path)] + flags,
                   _stdout(_derive("murata", "A4")))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin


# -- bound derivations -----------------------------------------------------
#
# The derive document of each row at two fixed rational bindings, of the
# A5/A6 "alt" routes at one binding, and of the degenerate bindings where
# a factor the derivation cancels has already fallen away (murata A5/A6
# at t = 0 or q = 1, kny D5/E3a at n4 = 0, and kny A1w at n4 = 0, where
# z - n4 is no longer in any denominator and must not be divided out).

_VALUES = {"q": Fraction(3, 2), "t": Fraction(2, 5), "w": Fraction(7),
           "d": Fraction(-1, 3), "k1": Fraction(-2), "k2": Fraction(5, 3),
           "th1": Fraction(4, 7), "a1": Fraction(3), "a2": Fraction(-1, 2),
           "a3": Fraction(5, 4), "g": Fraction(3), "n1": Fraction(2),
           "n2": Fraction(-3, 5), "n3": Fraction(1, 3), "n4": Fraction(2, 5),
           "n5": Fraction(-7, 4), "n6": Fraction(3, 2), "n7": Fraction(7, 2)}


def _full_binding(catalog, family):
    """Every parameter the derivation leaves free, on the constraint."""
    if catalog == "murata":
        names = ("q", "t", "w", "d", "k1", "k2") + lax._MURATA_EXTRA[family]
        b = {n: _VALUES[n] for n in names if n != "th2"}
        if family == "A4":
            b["th2"] = -(b["k1"] * b["k2"] * b["a1"] * b["a2"] * b["a3"]
                         / b["th1"])
        return b
    b = {n: v for n, v in _VALUES.items()
         if n in ("q", "g", "d", "k1", "k2") or n.startswith("n")}
    prod = b["q"]
    for i in range(1, 8):
        prod *= b["n%d" % i]
    b["n8"] = (b["k1"] * b["k2"]) ** 2 / prod
    return b


def _partial_binding(catalog):
    names = ("q", "t", "k1") if catalog == "murata" else ("q", "n4", "k1", "g")
    return {n: _VALUES[n] for n in names}


def _document(eq):
    return json.dumps(write_equation(eq), indent=2) + "\n"


def _bound_cases():
    """Label -> thunk returning the derive document."""
    cases = {}
    for catalog, family in _ROWS:
        for kind, b in (("partial", _partial_binding(catalog)),
                        ("full", _full_binding(catalog, family))):
            cases["%s %s %s" % (catalog, family, kind)] = (
                lambda c=catalog, f=family, b=b: derive_equation(c, f, b))
    for family in ("A5", "A6"):
        def alt(family=family):
            params = lax.MurataParams(family, _partial_binding("murata"))
            relation = lax.scalar_reduce(lax.build_murata(params))
            return lax.specialize(family, "alt", relation, params.binding)
        cases["murata %s alt partial" % family] = alt
    for catalog, family, b in (
            ("murata", "A5", {"t": 0}), ("murata", "A5", {"q": 1}),
            ("murata", "A6", {"t": 0}), ("murata", "A6", {"q": 1}),
            ("kny", "D5", {"n4": 0}), ("kny", "E3a", {"n4": 0}),
            ("kny", "A1w", {"n1": Fraction(2, 3), "n3": -2, "n4": 0})):
        label = ",".join("%s=%s" % item for item in b.items())
        cases["%s %s %s" % (catalog, family, label)] = (
            lambda c=catalog, f=family, b=b: derive_equation(c, f, b))
    return cases


_BOUND_CASES = _bound_cases()

_BOUND_PINS = {
    "kny A1w full":
        "ed88e9a14c48ac556498b0791cc57e7c356e2523ed704f4e43808113b2e950ed",
    "kny A1w n1=2/3,n3=-2,n4=0":
        "1c4536350026dd998a40d4e1a18aecd34f4a02385e058aeedb0670e4bfb86c3b",
    "kny A1w partial":
        "8b1b3393d3fd62aa76a7fefb4d8014585f15522d0dcdecd09039f6007b165f7a",
    "kny A1w8 full":
        "2f7075b9e0cebe8f73d9be77091c29080b3132d519376723d72040c8015a4fe4",
    "kny A1w8 partial":
        "1b32c4f8f649adbad4714299c8ac8d2e5293964ed73b8d8a0b43f4692969e58a",
    "kny A4w full":
        "9e33342153fcadfded7093ef2df60484c8f57fa3f51e0ffa7932c5ba5044b1bf",
    "kny A4w partial":
        "64ac6ea0ada207767ae5ba0f00f9f7f9f18be630acba23fadb30d6c5e037ac9d",
    "kny D5 full":
        "5339f158a94a656810cf480e71e2b6ece8d153f38ed8bee0ee5e8cc01da44bf7",
    "kny D5 n4=0":
        "5bc1e3aa316726f6b4a1fc17ca1691ab612a69eb2c8ac8f6b69ae129685f9bdf",
    "kny D5 partial":
        "24ad285f928f802df5bdca73f472d1007935f7a7028322450586cfc6b485f367",
    "kny E2a full":
        "e8b9cca656e2dfe7634769d66df73f787f46c26c27834934ea89d3a0c64438a6",
    "kny E2a partial":
        "f97ee9c1e25969f1eb5651cad0296bbeb08efd680c987ac9f2c1ecbc3f8b48d9",
    "kny E2b full":
        "7b24302f8ea7427883dab23a4b7510db193f7761ed99bd69fcfd2f7d910c96cc",
    "kny E2b partial":
        "d1d959e53cc962f5dd14e21a8ec73d0c495638182d6ca6bbc88d916ac6e60bad",
    "kny E3a full":
        "463bb7588ec5d473d61e94a71faacb949e2a60cd0a426e50f76a2398c98c3018",
    "kny E3a n4=0":
        "600bfd0118c374123dec1bdc26b03dfae111c984734ac5fcd60be4e2bda395dd",
    "kny E3a partial":
        "3b77f11b00bd49d4f7d13ae64581c6198811a93d6323041b2acade10fd4296cc",
    "kny E3b full":
        "48557cc9338779be382277063bf18f142464c9ea4c8b38170bc16cc62cabba44",
    "kny E3b partial":
        "1aeb36d5ee80646d0d45eb2346adc357a16322c8be99f0a47ecbac632921a188",
    "murata A4 full":
        "35517488e8841bb48a30f814ed3a620f89155f047a3e42a75c2d2e8dcd61370c",
    "murata A4 partial":
        "22ede6343cf2fa2c9921365e6cf4afb88f3e0a4fb2eedd76ce9d1bae62eec562",
    "murata A5 alt partial":
        "45b5409c4c84cc14250ca75ccbdfbb4a6927087716a745b266a2363ee4dd7f05",
    "murata A5 full":
        "3f3ceb02b21a82e5f86504dc80c12250efdad44566c53f60ffa6c5510787a128",
    "murata A5 partial":
        "a3cd79a74d4299b9ca8d8ec0c03bfe1ea38eed24d4b946ecc80ddcf4f5654234",
    "murata A5 q=1":
        "bde528c9158c31e975aafa86d5ac7b501155879bbb6c54426038b394d6a52483",
    "murata A5 t=0":
        "b68e5b2a2582ee63e81551b8d849214cc8f32b2d676b3d01c103b495f5c61aa1",
    "murata A5s full":
        "511bef246ba8fca7a7479ea86faf8f75bc1c836d1a3fef7018edb49c2f365f4a",
    "murata A5s partial":
        "b52de6da8e9cf003cef89b5a5bfbef84742a1bc2b35f8bd811f951b97f17acb4",
    "murata A6 alt partial":
        "f4311e89bee4f23ba112ad5262dc96467175a57fc890e84a59ac65852cad3419",
    "murata A6 full":
        "63b0984efa870070ca1355d5717284bca8d3fdff6c841f258e3605f0666fc222",
    "murata A6 partial":
        "8cf092e2d0d8b22158652cbdfe013d876e0766ab73071bfcd924d2c5fc0ee1d5",
    "murata A6 q=1":
        "32e7076d9fc4866fd65ac58ba830061b043b431649899b85467e6ac026bd5f0e",
    "murata A6 t=0":
        "b68e5b2a2582ee63e81551b8d849214cc8f32b2d676b3d01c103b495f5c61aa1",
    "murata A6s full":
        "9ef9822f70ddda95e8b295f0ec4bb735fc57c927849757f37413de3801a21fcf",
    "murata A6s partial":
        "2cc887db6c236b4e6a28e7084a2e0ae8fc9a4fcf085c6a1ccc4fd41540dedf9a",
    "murata A7 full":
        "d1c08b8dcb8bc191f38d4cc386c1c29a7c5ec3ccd887d506cd29976e1d12d89c",
    "murata A7 partial":
        "38d2dd0121cc313783b5d3f0fb56137994a2eaca360de0d39e693e8d60a684da",
    "murata A7p full":
        "08615de45ef2fc87eaf2112077c81c7f8d395847047b978b9a383338ae8b7ea9",
    "murata A7p partial":
        "059406b8766829d59811bb1a653e21231070ba64420999e6f2cfe8faf0a52582",
}


def test_every_bound_case_is_pinned():
    assert sorted(_BOUND_PINS) == sorted(_BOUND_CASES)


@pytest.mark.parametrize("label", sorted(_BOUND_CASES))
def test_bound_derivation_bytes(label):
    text = _document(_BOUND_CASES[label]())
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == _BOUND_PINS.get(label)


# -- help text -------------------------------------------------------------
#
# The stdout of --help and of each subcommand's --help, at a fixed width
# of 80 columns (argparse wraps to the COLUMNS environment variable).
# The limit help lists the preset names, so the pin holds them too.

_HELP_PINS = {
    "--help":
        "2007a07f0e445b61292ac38b56ce902a7816385526896ec4cfd4f6ef746d4b18",
    "derive --help":
        "c89efa2ea5576dca8040b01c493ed0da07f909e66b2fe9fa04ddf160cd14d0ae",
    "classify --help":
        "be85954a13394ab5a4bf4fa0113a2a284a208147e2be9dbb7ff357b3c87d1f5f",
    "polygon --help":
        "d0a484289503bd5d551bf4e6e22e685746a5dcfd6c6447c4f35f83aafb1fe858",
    "gauge --help":
        "7e38f708d50aca12fd92c1cd5a366753a64f25960c5ec6c4fb488a0692658d65",
    "exponents --help":
        "3dd081c5b1cee0e61969b84601cc6a93448e2689b869985edc32ad27ec3342e0",
    "series --help":
        "839d83bd8e2e44f3378885d55154aeb3b975091b68aee5edd2d22e0339b5c450",
    "limit --help":
        "1547050130e945a95f3aa4c073f89cb1f4b70562e32cc1421bacf67f9827a9fa",
    "verify --help":
        "ecfdc1afd8e3645d7593d8cf4fca86759bdefb326932e8daf02001c6a2f55a6a",
}


@pytest.mark.parametrize("label", sorted(_HELP_PINS))
def test_help_bytes(label, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    text = _stdout(label.split())
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == _HELP_PINS[label]
