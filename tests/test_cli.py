"""The plain command-line reader agrees with argparse, which it spares."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_segment import MultibandImage, save_envi_bsq
from ca_segment import cli

ALL_FLAGS = [flag for _, flags in cli._COMMANDS.values() for flag in flags]


def is_switch(flag):
    return flag[1].get("action") == "store_true"


def valid_value(flag):
    """Text of a value argparse accepts for ``flag`` and that starts with no "-"."""
    _, keywords = flag
    convert = keywords.get("type")
    if keywords.get("choices") is not None:
        return st.sampled_from(keywords["choices"])
    if convert is int:
        return st.integers(0, 10**6).map(str)
    if convert is float:
        return st.floats(0, 1e6).map(repr)
    if convert is cli._int_list:
        return st.lists(st.integers(0, 99), max_size=4).map(lambda v: ",".join(map(str, v)))
    if convert is cli._band_triple:
        return st.lists(st.integers(0, 99), min_size=3, max_size=3).map(
            lambda v: ",".join(map(str, v)))
    return st.text(st.sampled_from("ab./_ =,é"), max_size=6)


odd_values = st.sampled_from([
    "", "-1", "-0.5", "-h", "--input", "-", "x", "1.5", "1,x", "1,2", "nan", " 7", "moore",
    "envi-bsq", "VONNEUMANN",
])


@st.composite
def pieces(draw, flags):
    """A few arguments: a flag of the command in one of its forms, or something else."""
    flag = draw(st.sampled_from(flags))
    value = draw(st.one_of(valid_value(flag), odd_values))
    kind = draw(st.sampled_from(
        ["full", "full", "full", "abbrev", "equals", "help", "other", "stray", "bare"]))
    if kind == "full":
        return [flag[0]] if is_switch(flag) else [flag[0], value]
    if kind == "abbrev":
        return [flag[0][: draw(st.integers(3, len(flag[0]) - 1))], value]
    if kind == "equals":
        return [f"{flag[0]}={value}"]
    if kind == "help":
        return [draw(st.sampled_from(["-h", "--help"]))]
    if kind == "other":
        other = draw(st.sampled_from(ALL_FLAGS))
        return [other[0]] if is_switch(other) else [other[0], value]
    if kind == "stray":
        return [value]
    return [flag[0]]  # a value-taking flag without its value, or a switch


@st.composite
def plain_command_lines(draw):
    """COMMAND, every required flag and some others, with valid separate values."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[command][1]
    chosen = [flag for flag in flags if flag[1].get("required") or draw(st.booleans())]
    chosen += draw(st.lists(st.sampled_from(flags), max_size=3))  # repeats; the last value wins
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        argv += [flag[0]] if is_switch(flag) else [flag[0], draw(valid_value(flag))]
    return argv


@st.composite
def command_lines(draw):
    """A plain command line with arguments inserted, and maybe one removed or replaced."""
    argv = draw(plain_command_lines())
    for piece in draw(st.lists(pieces(cli._COMMANDS[argv[0]][1]), max_size=3)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = piece
    change = draw(st.sampled_from(["none", "none", "remove", "command"]))
    at = draw(st.integers(0, len(argv) - 1))
    if change == "remove":
        del argv[at]
    elif change == "command":
        argv[0] = draw(st.sampled_from(list(cli._COMMANDS) + ["segments", "--help", "-x"]))
    return argv


def as_text(namespace):
    # repr compares a NaN equal to itself
    return {key: repr(value) for key, value in vars(namespace).items()}


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_reader_builds_what_argparse_builds_or_declines(argv):
    namespace = cli._read_plain(argv)
    if namespace is not None:
        assert as_text(namespace) == as_text(cli._build_parser().parse_args(argv))


@settings(max_examples=300, deadline=None)
@given(plain_command_lines())
def test_reader_accepts_every_plain_command_line(argv):
    namespace = cli._read_plain(argv)
    assert namespace is not None
    assert as_text(namespace) == as_text(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["segment", "--input", "a", "--out-labels", "b"],  # --out-stats is required
    ["segment", "--input", "a", "--out-labels", "b", "--out-stats", "c", "--strict=1"],
    ["segment", "--input", "a", "--out-labels", "b", "--out-stats", "c", "--thread", "2"],
    ["segment", "--input", "a", "--out-labels", "b", "--out-stats", "c", "--delta-rel", "-0.5"],
    ["segment", "--input", "a", "--out-labels", "b", "--out-stats", "c", "--threads"],
    ["seeds", "--input", "a", "--out-labels", "b", "--out-stats", "c", "--threads", "2"],
    ["stats", "--labels", "a", "--neighborhood", "hex"],
    ["stats", "--labels", "a", "extra"],
    ["stats", "--labels", "a", "--out-stats"],
    ["stats", "-h"],
    ["--labels", "a"],
    [],
])
def test_reader_declines(argv):
    assert cli._read_plain(argv) is None


@pytest.fixture
def no_argparse(monkeypatch):
    def refuse():
        raise AssertionError("argparse built for a plain command line")

    monkeypatch.setattr(cli, "_build_parser", refuse)


def test_plain_command_lines_never_build_argparse(tmp_path, capsys, no_argparse):
    data = np.zeros((16, 16, 3), dtype=np.uint8)
    data[:, 8:] = 200
    scene = str(tmp_path / "scene.bsq")
    save_envi_bsq(MultibandImage(data=data, depth=8), scene)
    out = str(tmp_path)
    assert cli.main(["segment", "--input", scene, "--threads", "2", "--min-area", "10",
                     "--neighborhood", "moore", "--strict", "--preview-bands", "0,1,2",
                     "--out-labels", out + "/labels.u32", "--out-stats", out + "/stats.json",
                     "--out-preview", out + "/preview.ppm"]) == 0
    assert cli.main(["seeds", "--input", scene, "--stride", "2", "--bands", "0,2",
                     "--out-labels", out + "/seeds.u32", "--out-stats", out + "/seeds.json"]) == 0
    assert cli.main(["stats", "--labels", out + "/labels.u32", "--neighborhood", "vonneumann",
                     "--out-stats", out + "/recount.json"]) == 0
    assert cli.main(["stats", "--labels", out + "/labels.u32"]) == 0
    assert '"segment_count": 2' in capsys.readouterr().out


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_names_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: ca-segment {command} ")
    for option, _ in cli._COMMANDS[command][1]:
        assert option in text
