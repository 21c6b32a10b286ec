"""tools/cli_bytes.py: its argv list reaches every subcommand and every exit
code, and no argv on it ends in a traceback."""

import importlib.util
from pathlib import Path

import magprop.cli as cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_bytes.py"
_spec = importlib.util.spec_from_file_location("cli_bytes", _PATH)
cli_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_bytes)


def test_the_list_covers_every_subcommand_and_exit_without_a_traceback():
    subcommands = set(cli._JSON_COMMANDS) | {"sweep"}
    listed = {argv[0] for argv in cli_bytes.ARGVS if argv and "--help" not in argv}
    assert subcommands <= listed, sorted(subcommands - listed)
    assert any("{out}" in argv for argv in cli_bytes.ARGVS)
    assert any(arg.startswith("{missing}") for argv in cli_bytes.ARGVS for arg in argv)

    rows = cli_bytes.run_all(cli)
    for argv, (code, _, err, _) in zip(cli_bytes.ARGVS, rows):
        assert "Traceback" not in err, (argv, err)
        assert code in (0, 1, 2, 3), (argv, code)
    assert {code for code, *_ in rows} == {0, 1, 2, 3}
    for argv, (code, out, _, written) in zip(cli_bytes.ARGVS, rows):
        if code == 0 and "{out}" in argv:
            assert out == "" and written, argv
