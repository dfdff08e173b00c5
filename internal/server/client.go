package server

// Client is a one-session convenience over MuxClient: Dial opens a
// connection and one session on it, and the Client speaks that session's
// encode surface (EncodeFrame, EncodeBatch, EncodeTrace, Totals, Switches,
// Scheme, Config) — it has no wire code of its own. Like every MuxSession,
// a Client is safe for concurrent use; its calls are serialised on the
// connection. For many sessions over one socket, use a MuxClient directly.
type Client struct {
	*MuxSession
}

// Dial connects to a dbiserve instance and opens one session. Zero-valued
// geometry defaults to 1 lane × bus.BurstLength beats; an empty scheme (and
// zero weights) defer to the server's defaults. A rejected open closes the
// connection.
func Dial(addr string, cfg SessionConfig) (*Client, error) {
	mc, err := DialMux(addr, SessionConfig{Lanes: cfg.Lanes, Beats: cfg.Beats})
	if err != nil {
		return nil, err
	}
	s, err := mc.Open(cfg)
	if err != nil {
		mc.Close() //nolint:errcheck // the rejected open is the error to report
		return nil, err
	}
	return &Client{s}, nil
}

// Close ends the session and its connection: the server answers the quit
// with the aggregate totals of the connection's open sessions, which here
// are exactly this session's final totals. Closing an already-closed client
// returns zero totals and no error.
func (c *Client) Close() (Totals, error) { return c.MuxSession.c.Close() }
