"""Fixtures shared by the mail-service tests."""

import pytest

from repro.services.mail import components, crypto


@pytest.fixture()
def decrypt_calls(monkeypatch):
    """Every body the mail components decrypt, in call order: the
    client's reads and a store's transform."""
    calls = []

    def counting_decrypt(key, body):
        calls.append(body)
        return crypto.decrypt(key, body)

    monkeypatch.setattr(components, "decrypt", counting_decrypt)
    return calls
