"""The pool and cache flags that the batch CLIs and the daemon share."""

import pytest

from repro.campaign.__main__ import main as campaign_main
from repro.runtime.__main__ import main as runtime_main
from repro.server.__main__ import main as server_main
from repro.service.__main__ import main as service_main

CLIS = {
    "service": (service_main, []),
    "runtime": (runtime_main, []),
    "campaign run": (campaign_main, ["run"]),
    "server serve": (server_main, ["serve", "--port", "0"]),
}


@pytest.mark.parametrize("cli", sorted(CLIS))
@pytest.mark.parametrize(
    "arguments, message",
    [
        (["--workers", "0"], "--workers must be >= 1, got 0"),
        (
            ["--cache-dir", "cache", "--cache-backend", "cache.db"],
            "pass either --cache-dir or --cache-backend, not both",
        ),
        (
            ["--cache-backend", "sqlite:bogus=1"],
            "--cache-backend: sqlite backend requires a path= option",
        ),
    ],
)
def test_every_cli_rejects_the_same_pool_and_cache_misuse(cli, arguments, message, capsys):
    main, prefix = CLIS[cli]
    with pytest.raises(SystemExit) as raised:
        main([*prefix, *arguments])
    assert raised.value.code == 2
    assert message in capsys.readouterr().err
