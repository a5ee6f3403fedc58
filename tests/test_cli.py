import json

import pytest

from epilex.cli import DEFAULT_HORIZON, MAX_LETTERS, main
from epilex import Alphabet
from epilex.textio import parse_directive, parse_morphism, parse_skew, skew_from_dict

# The skew cap cases' core is the Fibonacci word, whose bound at depth k is a
# few times k, so only a depth in the millions scans past MAX_LETTERS.
SKEW_CAP_DEPTH = ("--depth", "2000000", "--horizon", "2000000")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_golden(capsys):
    code, out, _ = run(capsys, "generate", "--alphabet", "a,b", "--directive", "(ab)", "--prefix", "14")
    assert code == 0
    assert out.strip() == "abaababaabaaba"


def test_min_trivial(capsys):
    code, out, _ = run(capsys, "min", "--alphabet", "a,b", "--directive", "(ab)", "--order", "b<a", "--k", "1")
    assert code == 0
    assert out.strip() == "b"


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "--alphabet", "a,b,c", "--directive", "c(ab)", "--depth", "20", "--output", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "NotFine"
    assert data["witness"]["order"] == "c<a<b" and data["witness"]["k"] == 2
    assert data["strictness"]["ult"] == ["a", "b"] and data["strictness"]["m"] == 1


def test_classify_skew_json_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--alphabet", "a,b,c",
        "--skew", "skew v=(ab) x=c p=4 mu=psi:c suffix=full",
        "--depth", "20", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "SkewEpisturmian"
    alphabet = Alphabet.of("a", "b", "c")
    spec = skew_from_dict(alphabet, data["skew"])
    assert spec == parse_skew(alphabet, "skew v=(ab) x=c p=4 mu=psi:c suffix=9")


def test_construct_and_generate_agree(capsys):
    argv = ["--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c p=0 mu=psi:c suffix=full", "--prefix", "29"]
    code1, out1, _ = run(capsys, "construct", *argv)
    code2, out2, _ = run(capsys, "generate", *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip() == "ccacbcacacbcacbcacacbcacacbca"


def test_min_all_orders_json(capsys):
    code, out, _ = run(
        capsys,
        "min", "--alphabet", "a,b,c", "--directive", "(abc)",
        "--all-orders", "--k", "3", "--horizon", "500", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["results"]) == 6
    orders = {r["order"] for r in data["results"]}
    assert "a<b<c" in orders and "c<b<a" in orders
    for r in data["results"]:
        assert parse_directive(Alphabet.of("a", "b", "c"), data["spec"]["text"])  # echo re-parses
        assert len(r["word"]) == 3


def test_output_is_deterministic(capsys):
    argv = ["classify", "--alphabet", "a,b,c", "--directive", "c(ab)", "--depth", "15", "--output", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_parse_error_exits_one(capsys):
    code, _, err = run(capsys, "min", "--alphabet", "a,b", "--directive", "(ab", "--order", "a<b", "--k", "1")
    assert code == 1
    assert "position" in err


def test_skew_field_errors_name_the_field(capsys):
    for fields, named in (
        ("p=-3 suffix=full", "skew p=-3 must be >= 0"),
        ("p=zz suffix=full", "skew p=zz is not an integer"),
        ("p=4 suffix=half", "skew suffix=half is not an integer"),
    ):
        skew = f"skew v=(ab) x=c {fields} mu=psi:c"
        code, out, err = run(capsys, "construct", "--alphabet", "a,b,c", "--skew", skew, "--prefix", "5")
        assert code == 1 and out == "", skew
        assert named in err and "Traceback" not in err, err


def test_validation_error_exits_one(capsys):
    code, _, err = run(
        capsys, "construct", "--alphabet", "a,b,c", "--skew", "skew v=a(b) x=c p=0 suffix=full"
    )
    assert code == 1
    assert "strict" in err


def test_bad_flag_exits_one(capsys):
    code, _, err = run(capsys, "generate", "--alphabet", "a,b")
    assert code == 1


def test_verify_directive(capsys):
    code, out, _ = run(
        capsys, "verify", "--alphabet", "a,b,c", "--directive", "c(ab)", "--i", "3", "--horizon", "300"
    )
    assert code == 0
    assert out.count("ok=True") == 3


def test_verify_skew_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--alphabet", "a,b,c",
        "--skew", "skew v=(ab) x=c p=4 mu=psi:c suffix=full",
        "--horizon", "6000", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["checks"][0]["ok"] is True
    assert data["checks"][0]["recovered"]["p"] == 4


def test_negative_k_exits_one(capsys):
    code, _, err = run(
        capsys, "min", "--alphabet", "a,b", "--directive", "(ab)", "--order", "a<b", "--k", "-1", "--horizon", "20"
    )
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_verify_skew_round_trip_on_a_short_horizon(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--alphabet", "a,b,c",
        "--skew", "skew v=(ab) x=c p=4 mu=psi:c suffix=full",
        "--horizon", "50",
    )
    assert code == 0
    assert out.strip() == "check=skew-round-trip ok=True"


def test_verify_skew_on_a_too_short_horizon_is_a_user_error(capsys):
    # The spec is validated and passes the fineness gate, so whatever stops
    # the peel short of the round trip (no separator yet, several unique
    # letters, a prefix too short to show the core's period) is the horizon's
    # fault: exit 1 with the peel's reason, never exit 2.
    skew = "skew v=(ab) x=c p=4 mu=psi:c suffix=full"
    for horizon in range(23):
        code, out, err = run(capsys, "verify", "--alphabet", "a,b,c", "--skew", skew, "--horizon", str(horizon))
        assert (code, out) == (1, ""), horizon
        assert err.startswith(f"error: --horizon {horizon} is too short to reconstruct the skew word: "), err
    code, out, err = run(capsys, "verify", "--alphabet", "a,b,c", "--skew", skew, "--horizon", "23")
    assert (code, out, err) == (0, "check=skew-round-trip ok=True\n", "")
    skew = "skew v=(ab) x=c p=0 mu=id suffix=full"
    for horizon in (0, 2, 3, 4, 5):
        code, _, err = run(capsys, "verify", "--alphabet", "a,b,c", "--skew", skew, "--horizon", str(horizon))
        assert code == 1 and err.startswith(f"error: --horizon {horizon} is too short"), (horizon, err)


def test_letter_counts_over_the_cap_exit_one(capsys):
    over = str(MAX_LETTERS + 1)
    skew = "skew v=(ab) x=c p=4 mu=psi:c suffix=full"
    for argv in (
        ("construct", "--alphabet", "a,b,c", "--skew", skew, "--prefix", "99999999999"),
        ("generate", "--alphabet", "a,b", "--directive", "(ab)", "--prefix", over),
        ("min", "--alphabet", "a,b", "--directive", "(ab)", "--order", "a<b", "--k", "2", "--horizon", over),
        ("max", "--alphabet", "a,b", "--directive", "(ab)", "--order", "a<b", "--k", over),
        ("classify", "--alphabet", "a,b", "--directive", "(ab)", "--depth", over),
        ("verify", "--alphabet", "a,b,c", "--skew", skew, "--depth", over),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "" and f"exceeds the limit of {MAX_LETTERS} letters" in err


def test_oversized_image_error_is_short(capsys):
    # the image has about 3,300 digits of letters; the message names the cap, not the length
    skew = "skew v=(ab) x=c p=1 mu=psi:" + "ab" * 8000 + " suffix=full"
    code, out, err = run(capsys, "construct", "--alphabet", "a,b,c", "--skew", skew, "--prefix", "10")
    assert (code, out) == (1, "")
    assert err == f"error: mu has an image that exceeds the limit of {MAX_LETTERS} letters\n"
    assert len(err) < 200


def test_morphism_text_variants():
    alphabet = Alphabet.of("a", "b", "c")
    assert parse_morphism(alphabet, "psi:abc") == parse_morphism(alphabet, "psi(a)*psi(b)*psi(c)")
    assert parse_morphism(alphabet, "Ψ:abc") == parse_morphism(alphabet, "psi:abc")
    assert parse_morphism(alphabet, "id").is_identity


def test_verify_link_count_below_one_exits_one(capsys):
    for i in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--alphabet", "a,b", "--directive", "(ab)", "--i", i)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--i" in err


def test_verify_link_count_times_horizon_is_capped(capsys):
    import time

    began = time.perf_counter()
    code, out, err = run(capsys, "verify", "--alphabet", "a,b", "--directive", "ab(b)", "--i", "10000000")
    assert time.perf_counter() - began < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--i" in err and str(MAX_LETTERS) in err
    # one link past the cap at the default horizon of 1000 letters
    code, out, err = run(capsys, "verify", "--alphabet", "a,b", "--directive", "ab(b)", "--i", str(MAX_LETTERS // 1000 + 1))
    assert code == 1 and out == "" and "--i" in err
    code, out, _ = run(capsys, "verify", "--alphabet", "a,b", "--directive", "ab(b)", "--i", "3")
    assert code == 0
    assert out == "check=shift-chain i=1 letter=a ok=True\ncheck=shift-chain i=2 letter=b ok=True\ncheck=shift-chain i=3 letter=b ok=True\n"


def test_classify_on_a_periodic_word_at_depth_runs_in_seconds():
    # a(b) directs (ab)^ω: under b < a every odd start stays live at every
    # length, which took 23 s when the chain looped over the live starts.
    from helpers import run_limited

    argv = ["classify", "--alphabet", "a,b", "--directive", "a(b)", "--depth", "10000", "--horizon", "20000"]
    done = run_limited(["-m", "epilex.cli", *argv], timeout=20)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "classification: NotFine\nwitness: order=b<a k=2 factor=ba required=bb reason=required-missing\n"


def test_oversized_inputs_exit_one_before_anything_is_built():
    # Each of these ran for 18-27 s, or died of MemoryError under a 2 GiB
    # cap, when it was checked only after building; the child process is
    # capped at 512 MiB so a regression fails here instead of on the host.
    from helpers import run_limited

    limit = f"exceeds the limit of {MAX_LETTERS} letters"
    cases = [
        (("classify", "--alphabet", "a,b,c", "--directive", "ab" * 17 + "(c)", "--depth", "1"),
         f"error: --depth 1 scans 24157816 letters, which {limit}"),
        (("construct", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c p=30000000 mu=id suffix=1"),
         f"error: skew p=30000000 {limit}"),
        (("construct", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c p=2 mu=psi:" + "ab" * 20),
         f"error: mu has an image that {limit}"),
        (("classify", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c p=30000000"),
         f"error: skew p=30000000 {limit}"),
        (("classify", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c mu=psi:" + "ab" * 20),
         f"error: mu has an image that {limit}"),
        (("verify", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c p=30000000 suffix=1"),
         f"error: skew p=30000000 {limit}"),
        (("verify", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c mu=psi:" + "ab" * 20 + " suffix=1"),
         f"error: mu has an image that {limit}"),
        # images under the cap, but the reconstruction gate would scan past it
        (("verify", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c mu=psi:" + "ab" * 12 + " suffix=1", *SKEW_CAP_DEPTH),
         f"error: --depth 2000000 scans 11227465 letters, which {limit}"),
        (("classify", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c mu=psi:" + "ab" * 12 + " suffix=1", *SKEW_CAP_DEPTH),
         f"error: --depth 2000000 scans 11227465 letters, which {limit}"),
        # a literal word's bound, checked like the others (its peel ran past 25 s)
        (("classify", "--alphabet", "a,b", "--literal", "a(b)", "--depth", "10000000", "--horizon", "10000000"),
         f"error: --depth 10000000 scans 10000001 letters, which {limit}"),
        # a literal word's bound under the cap, but not the letters it is peeled from
        (("classify", "--alphabet", "a,b", "--literal", "a(b)", "--depth", "2500000", "--horizon", "2500000"),
         f"error: classify peels 20000008 letters, which {limit}"),
        # p and every image under the cap, but p times the longest core image is not
        (("construct", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c p=2000000 mu=psi:ababababab", "--prefix", "5"),
         f"error: skew seed may reach 288000232 letters, which {limit}"),
    ]
    for argv, message in cases:
        done = run_limited(["-m", "epilex.cli", *argv], timeout=60, memory=512 << 20)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message + "\n"), argv


def test_classify_skew_scan_cap_builds_no_seed(capsys, monkeypatch):
    from epilex.fine import SkewSpec

    built = []
    seed_word = SkewSpec.seed_word
    monkeypatch.setattr(SkewSpec, "seed_word", lambda spec: built.append(spec) or seed_word(spec))
    code, out, err = run(
        capsys, "classify", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c mu=psi:" + "ab" * 12 + " suffix=1", *SKEW_CAP_DEPTH
    )
    assert (code, out, built) == (1, "", [])
    assert err.startswith("error: --depth 2000000 scans 11227465 letters")


def test_verify_skew_scan_cap_builds_no_seed(capsys, monkeypatch):
    from epilex.fine import SkewSpec

    built = []
    seed_word = SkewSpec.seed_word
    monkeypatch.setattr(SkewSpec, "seed_word", lambda spec: built.append(spec) or seed_word(spec))
    code, out, err = run(
        capsys, "verify", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c mu=psi:" + "ab" * 12 + " suffix=1", *SKEW_CAP_DEPTH
    )
    assert (code, out, built) == (1, "", [])
    assert err.startswith("error: --depth 2000000 scans 11227465 letters")


def test_skew_commands_build_the_seed_once_per_stream(capsys, monkeypatch):
    from epilex.fine import SkewSpec

    built = []
    seed_word = SkewSpec.seed_word
    monkeypatch.setattr(SkewSpec, "seed_word", lambda spec: built.append(spec) or seed_word(spec))
    skew = ("--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c p=4 mu=psi:c suffix=full")
    # verify builds the given stream, the recovered spec's seed to match
    # suffixes against, and the recovered stream
    for argv, seeds in (
        (("construct", *skew), 1),
        (("generate", *skew), 1),
        (("min", *skew, "--k", "3", "--order", "a<b<c"), 1),
        (("classify", *skew), 1),
        (("verify", *skew), 3),
    ):
        built.clear()
        code, _, err = run(capsys, *argv)
        assert (code, err, len(built)) == (0, "", seeds), argv


def test_cross_check_failures_exit_two(capsys, monkeypatch):
    from dataclasses import replace

    import epilex.fine as fine
    from epilex import Classification

    # every empirical scan refutes fineness, against the structural verdict
    scan = fine.is_fine_empirical
    monkeypatch.setattr(
        fine,
        "is_fine_empirical",
        lambda *a, **kw: replace(scan(*a, **kw), classification=Classification.NOT_FINE, s_prefix=None),
    )
    skew = "skew v=(ab) x=c p=4 mu=psi:c suffix=full"
    for argv in (
        ("classify", "--alphabet", "a,b", "--directive", "(ab)", "--depth", "12"),
        ("classify", "--alphabet", "a,b,c", "--skew", skew, "--depth", "12"),
        ("classify", "--alphabet", "a,b", "--literal", "(a)", "--depth", "12"),
        ("verify", "--alphabet", "a,b,c", "--skew", skew, "--horizon", "6000"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("internal consistency failure: "), argv


def test_verify_directive_exits_two_on_a_diverging_shift_chain_link(capsys, monkeypatch):
    from epilex import PureEpistandardMorphism

    # the image of each link is mapped under the next letter's generator
    # instead of the peeled letter's, so link 1 of c(ab) diverges
    real = PureEpistandardMorphism._map_text

    def planted(morphism, text):
        (x,) = morphism.letters
        wrong = PureEpistandardMorphism(morphism.alphabet, ((x + 1) % morphism.alphabet.size,))
        return real(wrong, text)

    monkeypatch.setattr(PureEpistandardMorphism, "_map_text", planted)
    code, out, err = run(capsys, "verify", "--alphabet", "a,b,c", "--directive", "c(ab)", "--i", "3", "--horizon", "300")
    assert (code, out) == (2, "")
    assert err == "internal consistency failure: shift chain link 1 of c(ab) diverges within horizon 300\n"


def test_verify_directive_builds_one_standard_word_per_shifted_directive(capsys, monkeypatch):
    # link i's shifted word is link i+1's parent, so --i i builds i + 1 words
    import epilex.engine as engine

    built = []
    init = engine.DirectiveStream.__init__

    def counting(self, directive):
        built.append(str(directive))
        init(self, directive)

    monkeypatch.setattr(engine.DirectiveStream, "__init__", counting)
    for i in (1, 3, 5):
        built.clear()
        code, out, _ = run(capsys, "verify", "--alphabet", "a,b,c", "--directive", "c(ab)", "--i", str(i), "--horizon", "300")
        assert code == 0 and out.count("ok=True") == i
        assert built == ["c(ab)", "(ab)", "(ba)", "(ab)", "(ba)", "(ab)"][: i + 1]


def test_min_reads_only_its_horizon_on_a_long_preperiod(capsys):
    import time

    began = time.perf_counter()
    code, out, err = run(capsys, "min", "--alphabet", "a,b", "--directive", "ab" * 19 + "(ab)", "--k", "1", "--order", "a<b")
    assert time.perf_counter() - began < 1.0
    assert (code, out, err) == (0, "a\n", "")
    # just under the caps, the same specs still run
    code, out, _ = run(capsys, "classify", "--alphabet", "a,b,c", "--directive", "ab" * 3 + "(c)", "--depth", "5")
    assert (code, out) == (0, "classification: NotFine\n")


def test_one_parser_serves_many_calls_in_one_process(capsys):
    from epilex.cli import build_parser
    from helpers import run_limited

    # importing the CLI builds no parser; the first call does
    probe = "import epilex.cli as c; print(c.build_parser.cache_info().currsize)"
    done = run_limited(["-c", probe], timeout=30)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
    tri = ("--alphabet", "a,b,c", "--directive", "(abc)")
    code, out, err = run(capsys, "min", *tri, "--all-orders", "--k", "3", "--horizon", "500")
    assert (code, err) == (0, "")
    assert out == "a<b<c\taab\na<c<b\taab\nb<a<c\tbab\nb<c<a\tbab\nc<a<b\tcab\nc<b<a\tcab\n"
    # an earlier call's --horizon leaves the parser's default as it was
    code, out, err = run(capsys, "min", *tri, "--order", "b<a<c", "--k", "4", "--output", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "spec": {"kind": "directive", "text": "(abc)"},
        "word": "baba", "k": 4, "order": "b<a<c", "horizon": DEFAULT_HORIZON, "exact": True,
    }
    code, out, err = run(capsys, "min", *tri, "--order", "b<a<c", "--all-orders", "--k", "4")
    assert (code, out) == (1, "")
    assert err == "error: argument --all-orders: not allowed with argument --order\n"
    code, out, err = run(capsys, "classify", "--alphabet", "a,b,c", "--directive", "c(ab)", "--depth", "15")
    assert (code, err) == (0, "")
    assert out == "classification: NotFine\nwitness: order=c<a<b k=2 factor=ca required=cc reason=required-missing\n"
    skew = "skew v=(ab) x=c p=0 mu=psi:c suffix=full"
    code, out, err = run(capsys, "construct", "--alphabet", "a,b,c", "--skew", skew, "--prefix", "29", "--output", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "word": "ccacbcacacbcacbcacacbcacacbca", "length": 29,
        "skew": {"directive": "(ab)", "x": "c", "p": 0, "morphism": "psi:c", "suffix_len": 1},
    }
    assert build_parser() is build_parser()


GOLDEN_SKEW = "skew v=(ab) x=c p=4 mu=psi:c suffix=full"
GOLDEN_SKEW_JSON = '{"directive": "(ab)", "x": "c", "p": 4, "morphism": "psi:c", "suffix_len": 9}'
GOLDEN_CAP = f"which exceeds the limit of {MAX_LETTERS} letters\n"

# name: (argv, exit status, text stdout, JSON stdout, stderr); one row for
# each branch of classify, the skew round trip and each scan-cap refusal.
GOLDEN = {
    "strict-directive": (
        ("classify", "--alphabet", "a,b,c", "--directive", "(abc)", "--depth", "8"), 0,
        "classification: StrictEpisturmian\nstrict over: a,b,c\ns: abacaba\n",
        '{"classification": "StrictEpisturmian", "depth": 8, "B": ["a", "b", "c"], "skew": null, "s_prefix": "abacaba",'
        ' "witness": null, "strictness": {"alph": ["a", "b", "c"], "ult": ["a", "b", "c"], "strict_over": ["a", "b", "c"],'
        ' "m": 0}}\n',
        "",
    ),
    "non-strict-directive": (
        ("classify", "--alphabet", "a,b,c", "--directive", "c(ab)", "--depth", "8"), 0,
        "classification: NotFine\nwitness: order=c<a<b k=2 factor=ca required=cc reason=required-missing\n",
        '{"classification": "NotFine", "depth": 8, "B": null, "skew": null, "s_prefix": null, "witness": {"order": "c<a<b",'
        ' "k": 2, "factor": "ca", "required": "cc", "reason": "required-missing"}, "strictness": {"alph": ["a", "b", "c"],'
        ' "ult": ["a", "b"], "strict_over": null, "m": 1}}\n',
        "",
    ),
    "non-strict-directive-fine-to-depth": (
        ("classify", "--alphabet", "a,b,c", "--directive", "ababab(c)", "--depth", "5"), 0,
        "classification: NotFine\n",
        '{"classification": "NotFine", "depth": 5, "B": null, "skew": null, "s_prefix": null, "witness": null,'
        ' "strictness": {"alph": ["a", "b", "c"], "ult": ["c"], "strict_over": null, "m": 6}}\n',
        "",
    ),
    "skew-spec": (
        ("classify", "--alphabet", "a,b,c", "--skew", GOLDEN_SKEW, "--depth", "8"), 0,
        "classification: SkewEpisturmian\nskew: v=(ab) x=c p=4 mu=psi:c suffix=9\ns: cacbcac\n",
        '{"classification": "SkewEpisturmian", "depth": 8, "B": null, "skew": ' + GOLDEN_SKEW_JSON + ','
        ' "s_prefix": "cacbcac", "witness": null}\n',
        "",
    ),
    "skew-literal": (
        ("classify", "--alphabet", "a,b", "--literal", "ba(ab)", "--depth", "8"), 0,
        "classification: SkewEpisturmian\nskew: v=(b) x=a p=1 mu=psi:a suffix=2\ns: abababa\n",
        '{"classification": "SkewEpisturmian", "depth": 8, "B": null, "skew": {"directive": "(b)", "x": "a", "p": 1,'
        ' "morphism": "psi:a", "suffix_len": 2}, "s_prefix": "abababa", "witness": null}\n',
        "",
    ),
    "one-letter-literal": (
        ("classify", "--alphabet", "a,b", "--literal", "(a)", "--depth", "6"), 0,
        "classification: StrictEpisturmian\nstrict over: a\ns: aaaaa\n",
        '{"classification": "StrictEpisturmian", "depth": 6, "B": ["a"], "skew": null, "s_prefix": "aaaaa", "witness": null}\n',
        "",
    ),
    "not-fine-literal": (
        ("classify", "--alphabet", "a,b,c", "--literal", "c(ab)", "--depth", "8"), 0,
        "classification: NotFine\nwitness: order=b<a<c k=2 factor=ba required=bb reason=required-missing\n",
        '{"classification": "NotFine", "depth": 8, "B": null, "skew": null, "s_prefix": null, "witness": {"order": "b<a<c",'
        ' "k": 2, "factor": "ba", "required": "bb", "reason": "required-missing"}}\n',
        "",
    ),
    "unknown-literal": (
        ("classify", "--alphabet", "a,b", "--literal", "bab(aba)", "--depth", "4"), 0,
        "classification: Unknown\ns: aba\n",
        '{"classification": "Unknown", "depth": 4, "B": null, "skew": null, "s_prefix": "aba", "witness": null}\n',
        "",
    ),
    "verify-skew": (
        ("verify", "--alphabet", "a,b,c", "--skew", GOLDEN_SKEW, "--horizon", "6000"), 0,
        "check=skew-round-trip ok=True\n",
        '{"checks": [{"check": "skew-round-trip", "ok": true, "recovered": ' + GOLDEN_SKEW_JSON + "}]}\n",
        "",
    ),
    "directive-cap": (
        ("classify", "--alphabet", "a,b,c", "--directive", "ab" * 17 + "(c)", "--depth", "1"), 1, "", "",
        "error: --depth 1 scans 24157816 letters, " + GOLDEN_CAP,
    ),
    "skew-cap": (
        ("classify", "--alphabet", "a,b,c", "--skew", "skew v=(ab) x=c mu=psi:" + "ab" * 12 + " suffix=1", *SKEW_CAP_DEPTH),
        1, "", "", "error: --depth 2000000 scans 11227465 letters, " + GOLDEN_CAP,
    ),
    "literal-cap": (
        ("classify", "--alphabet", "a,b", "--literal", "a(b)", "--depth", "10000000", "--horizon", "10000000"),
        1, "", "", "error: --depth 10000000 scans 10000001 letters, " + GOLDEN_CAP,
    ),
}


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("name", list(GOLDEN))
def test_classify_and_verify_output_is_pinned(capsys, name, output):
    argv, code, text, payload, err = GOLDEN[name]
    assert run(capsys, *argv, "--output", output) == (code, text if output == "text" else payload, err)
