"""Folder functionality: store-level and end-to-end through deployments."""

import pytest

from repro.services.mail import MailStore, MailStoreError, StoredMessage


class TestStoreFolders:
    def test_default_folders(self):
        store = MailStore()
        store.create_account("Alice")
        assert store.folder_names("Alice") == ["inbox", "sent"]

    def test_create_folder(self):
        store = MailStore()
        store.create_account("Alice")
        store.create_folder("Alice", "archive")
        assert "archive" in store.folder_names("Alice")

    def test_duplicate_or_empty_folder_rejected(self):
        store = MailStore()
        store.create_account("Alice")
        with pytest.raises(MailStoreError):
            store.create_folder("Alice", "inbox")
        with pytest.raises(MailStoreError):
            store.create_folder("Alice", "")

    def test_move_message(self):
        store = MailStore()
        store.create_account("Alice")
        store.create_folder("Alice", "archive")
        msg = StoredMessage(sender="Bob", recipient="Alice", sensitivity=1, body=b"x")
        store.store(msg)
        store.move_message("Alice", msg.msg_id, "archive")
        box = store.mailbox("Alice")
        assert box.inbox == []
        assert box.folder("archive") == [msg]

    def test_move_is_idempotent_within_folder(self):
        store = MailStore()
        store.create_account("Alice")
        store.create_folder("Alice", "a")
        msg = StoredMessage(sender="B", recipient="Alice", sensitivity=1, body=b"x")
        store.store(msg)
        store.move_message("Alice", msg.msg_id, "a")
        store.move_message("Alice", msg.msg_id, "a")
        assert len(store.mailbox("Alice").folder("a")) == 1

    def test_move_unknown_message_or_folder(self):
        store = MailStore()
        store.create_account("Alice")
        with pytest.raises(MailStoreError):
            store.move_message("Alice", 999999, "inbox")
        msg = StoredMessage(sender="B", recipient="Alice", sensitivity=1, body=b"x")
        store.store(msg)
        with pytest.raises(MailStoreError):
            store.move_message("Alice", msg.msg_id, "nonexistent")


    def test_absorb_does_not_resurrect_moved_message(self):
        """A view's miss-path merge dedupes against the whole mailbox,
        not the inbox: mail the user filed elsewhere stays filed."""
        view = MailStore(max_sensitivity=3)
        view.create_account("Alice")
        view.create_folder("Alice", "archive")
        moved = StoredMessage(sender="Bob", recipient="Alice", sensitivity=1, body=b"x")
        fresh = StoredMessage(sender="Bob", recipient="Alice", sensitivity=2, body=b"y")
        above = StoredMessage(sender="Bob", recipient="Alice", sensitivity=4, body=b"z")
        view.store(moved)
        view.move_message("Alice", moved.msg_id, "archive")
        view.absorb("Alice", [moved, fresh, fresh, above])
        box = view.mailbox("Alice")
        assert box.inbox == [fresh]
        assert box.folder("archive") == [moved]
        assert view.holds("Alice", moved.msg_id) and not view.holds("Alice", above.msg_id)
        assert view.messages_stored == 1  # absorbing is not storing


class TestFoldersEndToEnd:
    @pytest.fixture()
    def world(self):
        from repro.experiments.mail_setup import build_mail_testbed

        tb = build_mail_testbed(clients_per_site=2)
        rt = tb.runtime
        proxy = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
        return rt, proxy

    def test_create_folder_writes_through_cache_to_primary(self, world):
        rt, proxy = world
        resp = rt.run(proxy.request("create_folder", {"folder": "projects"}))
        assert resp.ok
        assert "projects" in resp.payload["folders"]
        primary = rt.instance_of("MailServer")
        assert "projects" in primary.store.folder_names("Bob")
        # The local cache's folder structure is untouched (primary-owned).
        vms = rt.instance_of("ViewMailServer")
        assert "projects" not in vms.store.folder_names("Bob")

    def test_move_mail_end_to_end(self, world):
        rt, proxy = world
        # Deliver a message for Bob directly at the primary.
        primary = rt.instance_of("MailServer")
        msg = StoredMessage(sender="Alice", recipient="Bob", sensitivity=1, body=b"x")
        primary.store.store(msg)
        rt.run(proxy.request("create_folder", {"folder": "keep"}))
        resp = rt.run(proxy.request("move_mail", {"msg_id": msg.msg_id, "folder": "keep"}))
        assert resp.ok
        assert primary.store.mailbox("Bob").folder("keep") == [msg]

    def test_miss_fetch_does_not_resurrect_mail_moved_at_the_view(self):
        """Degraded-mode ``move_mail`` files a message at the view; the
        primary (flush ``never``) still has it in the inbox, so the next
        miss fetch brings it back — and must not re-file it."""
        from repro.experiments.mail_setup import build_mail_testbed

        rt = build_mail_testbed(clients_per_site=2, flush_policy="never").runtime
        proxy = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
        primary = rt.instance_of("MailServer")
        vms = rt.instance_of("ViewMailServer")
        msg = StoredMessage(sender="Alice", recipient="Bob", sensitivity=1, body=b"x")
        primary.store.store(msg)
        miss = {"user": "Bob", "max_sensitivity": 5}  # above the view's trust
        assert rt.run(proxy.request("fetch_mail", miss)).ok
        assert vms.store.mailbox("Bob").inbox == [msg]

        rt.network.remove_link("newyork-gw", "sandiego-gw")
        rt.network.remove_link("sandiego-gw", "seattle-gw")
        resp = rt.run(proxy.request("move_mail", {"msg_id": msg.msg_id, "folder": "keep"}))
        assert resp.ok and rt.coherence.stats.degraded_writes == 1
        rt.network.add_link("newyork-gw", "sandiego-gw",
                            latency_ms=200.0, bandwidth_mbps=20.0, secure=False)

        assert rt.run(proxy.request("fetch_mail", miss)).ok
        box = vms.store.mailbox("Bob")
        assert box.inbox == []
        assert box.folder("keep") == [msg]
        local = rt.run(proxy.request("fetch_mail", {"user": "Bob", "max_sensitivity": 3}))
        assert local.ok and local.payload["messages"] == []

    def test_view_client_lacks_folder_ops(self):
        from repro.experiments.mail_setup import build_mail_testbed

        tb = build_mail_testbed(clients_per_site=2)
        rt = tb.runtime
        proxy = rt.run(rt.client_connect("seattle-client1", {"User": "Carol"}))
        assert proxy.root.unit.name == "ViewMailClient"
        resp = rt.run(proxy.request("create_folder", {"folder": "x"}))
        assert not resp.ok

    def test_bad_folder_request_fails_cleanly(self, world):
        rt, proxy = world
        resp = rt.run(proxy.request("create_folder", {"folder": ""}))
        assert not resp.ok
        resp = rt.run(proxy.request("move_mail", {"msg_id": 424242, "folder": "inbox"}))
        assert not resp.ok
