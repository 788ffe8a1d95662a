"""A server that loses the first BYE ack, for the lost-ack retry tests."""

from repro.net import AggregatorServer


class LosesFirstByeAck(AggregatorServer):
    """Commits the first session, then drops its connection before the BYE
    ack — the ack a client loses when the link dies right after a commit."""

    lost = False

    def commit(self, session):
        super().commit(session)
        if not self.lost:
            self.lost = True
            raise ConnectionResetError("BYE ack lost")
