"""Simulation configs and ``--config`` params files that never end in a
traceback or a part-written row.

Random config files go through ``ammauction simulate`` and params files
through ``ammauction formulas --config``: each exits 0 or 2, within a
second, and a CSV it writes parses to rows as wide as its header. Values are
drawn as raw JSON text around a valid config: integers past Python's
4,300-digit conversion limit, decimals past a float's range, NaN and
infinities, booleans, nulls, strings and lists where numbers belong, and
keys that are missing or unknown. The horizon is drawn small or invalid, as
a valid horizon's cost is linear by design. Fixed cases pin the error that
names an unreadable file or text that is not UTF-8.
"""

import csv
import json
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy.random  # noqa: F401  -- simulate's sampler, loaded before any example's deadline
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ammauction.cli import main

NUMBERS = st.one_of(
    st.integers(-10, 10**7).map(str),
    st.integers(1, 5_000).map(lambda digits: "9" * digits),
    st.builds("{}e{}".format, st.integers(1, 10**6), st.integers(-400, 400)),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "-0.0", "0"]),
)
VALUES = st.one_of(
    NUMBERS,
    st.text(st.characters(exclude_categories=()), max_size=6).map(json.dumps),
    st.sampled_from(["true", "false", "null", "[]", "{}", '"1"']),
)
# a horizon costs work linear in its value: small, unreadable, or of the
# wrong kind
HORIZONS = st.one_of(
    st.integers(-2, 300).map(str),
    st.integers(4_301, 5_000).map(lambda digits: "9" * digits),
    st.sampled_from(["2.5", "1e3", "true", "null", '"50"']),
)
# the reference market and a valid sim config, as JSON text
MARKET = {"sigma": "0.05", "delta_t": "0.01", "r": "1e-4", "f_max": "0.05", "c0": "25.0",
          "c1": "120.0", "alpha": "0.5"}
SIM_CONFIG = {
    "schema_version": "1",
    "horizon_blocks": "50",
    "seed": "21",
    "market": "{}",  # drawn
    "k_delay": "5",
    "min_increment_factor": "1.1",
    "default_fee": "null",
    "withdrawal_fee": "null",
    "manager_policy": '"fixed"',
    "manager_fee": "0.003",
    "lp_policy": '"static"',
    "initial_liquidity": "1.0",
    "initial_bids": "[]",  # drawn
}


def json_object(fields: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


def mutate(draw, fields: dict, values) -> dict:
    """``fields`` with a few values redrawn, and maybe an unknown or a
    missing key."""
    fields = dict(fields)
    for key in fields:
        if draw(st.integers(0, 11)) == 0:
            fields[key] = draw(values(key))
    if draw(st.integers(0, 19)) == 0:
        fields["extra"] = draw(VALUES)
    if draw(st.integers(0, 19)) == 0:
        del fields[draw(st.sampled_from(sorted(fields)))]
    return fields


def sim_value(key: str):
    if key == "horizon_blocks":
        return HORIZONS
    if key == "manager_policy":
        return st.one_of(st.sampled_from(['"fixed"', '"optimal"']), VALUES)
    if key == "lp_policy":
        return st.one_of(st.sampled_from(['"static"', '"zero_profit"']), VALUES)
    return VALUES


@st.composite
def sim_configs(draw) -> str:
    """A config with up to three initial bids, some fields redrawn."""
    bids = []
    for _ in range(draw(st.integers(0, 2)) + (draw(st.integers(0, 9)) == 0)):
        bid = {"bidder": '"mgr"', "rent": "1e-6", "deposit": "0.01"}
        bids.append(json_object(mutate(draw, bid, lambda key: VALUES)))
    fields = {
        **SIM_CONFIG,
        "market": json_object(mutate(draw, MARKET, lambda key: NUMBERS)),
        "initial_bids": "[" + ", ".join(bids) + "]",
    }
    return json_object(mutate(draw, fields, sim_value))


@st.composite
def params_files(draw) -> str:
    fields = {"schema_version": "1", **MARKET}
    return json_object(mutate(draw, fields, lambda key: VALUES))


def csv_widths(path: Path) -> set[int]:
    """The widths of a CSV's header and rows, below its manifest line."""
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline().startswith("# manifest ")
        return {len(row) for row in csv.reader(fh)}


def run(command: list[str], text: str, name: str) -> None:
    """Run ``command`` on ``text`` saved as its input file; it exits 0 or 2,
    and a CSV it writes has rows as wide as its header."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        out = Path(tmp) / "out"
        argv = [arg.format(path=path) for arg in command] + ["--out", str(out)]
        code = main(argv)
        assert code in (0, 2)
        if (out / name).exists():
            assert len(csv_widths(out / name)) == 1
        elif code == 0:
            pytest.fail(f"exit 0 without {name}")


# capped so that the two fuzz tests take about 2 s together
def fuzz(max_examples: int):
    return settings(
        max_examples=max_examples,
        deadline=timedelta(seconds=1),
        suppress_health_check=[HealthCheck.too_slow],
    )


@fuzz(40)
@given(sim_configs())
def test_simulate_exits_0_or_2_and_writes_whole_rows(text):
    run(["simulate", "{path}"], text, "blocks.csv")


@fuzz(30)
@given(params_files())
def test_params_file_exits_0_or_2_and_writes_whole_rows(text):
    run(["formulas", "--config", "{path}", "--fees", "0,0.003"], text, "formulas.csv")


@pytest.mark.parametrize(
    "command, text",
    [
        (["simulate", "{path}"], '{"horizon_blocks": ' + "9" * 5_000 + "}"),
        (["attack", "{path}"], '{"schema_version": 1, "seed": ' + "9" * 5_000 + "}"),
        (["formulas", "--config", "{path}"], '{"sigma": ' + "9" * 5_000 + "}"),
    ],
    ids=["simulate", "attack", "formulas"],
)
def test_integer_past_the_digit_limit_names_the_file(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    argv = [arg.format(path=path) for arg in command] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: unreadable number (Exceeds")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command",
    [["simulate", "{path}"], ["attack", "{path}"], ["formulas", "--config", "{path}"]],
    ids=["simulate", "attack", "formulas"],
)
def test_text_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"schema_version": 1,\r\n "seed": "\xc3x"}')
    argv = [arg.format(path=path) for arg in command] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: not UTF-8 (byte 0xc3: invalid continuation byte)\n"
    )
    assert not (tmp_path / "out").exists()


def test_increment_the_auction_cannot_keep_exact_is_refused_before_any_output(tmp_path, capsys):
    # a float field takes a JSON integer, but the auction's exact amounts
    # have at most 100 significant digits
    fields = {**SIM_CONFIG, "market": json_object(MARKET), "min_increment_factor": "9" * 101}
    path = tmp_path / "config.json"
    path.write_text(json_object(fields), encoding="utf-8")
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: invalid-amount: min_increment_factor is out of range"
    )
    assert not (tmp_path / "out").exists()
