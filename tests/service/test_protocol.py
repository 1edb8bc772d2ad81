"""Submit-body validation at the HTTP boundary (no socket needed)."""

import pytest

from repro.service.protocol import ProtocolError, parse_submit


class TestBackendParams:
    def test_constructor_keywords_pass_through(self):
        kwargs = parse_submit({"scenario": "demo", "backend": "awgr",
                               "backend_params": {"planes": 3}})
        assert kwargs["backend_params"] == {"planes": 3}

    def test_typo_names_the_accepted_keys(self):
        with pytest.raises(ProtocolError) as err:
            parse_submit({"scenario": "demo",
                          "backend_params": {"planez": 3}})
        message = str(err.value)
        assert "planez" in message
        assert "'planes'" in message and "'track_state'" in message

    @pytest.mark.parametrize("backend,key", [
        ("wss", "batch_step"),
        ("awgr", "batch_admission"),
        # The scenario sets n_nodes; a second value would collide.
        ("electronic", "n_nodes"),
    ])
    def test_non_constructor_keys_rejected(self, backend, key):
        with pytest.raises(ProtocolError, match=key):
            parse_submit({"scenario": "demo", "backend": backend,
                          "backend_params": {key: False}})
