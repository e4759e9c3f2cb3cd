package dist

// Grouped option sub-structs shared by both ends of a fleet:
// NetOptions is the transport surface of CoordinatorOptions and
// WorkerOptions alike, and CacheOptions bounds a worker's durable
// state.

import (
	"crypto/tls"
	"net"
	"time"
)

// NetOptions is the transport security surface shared by both ends of
// a fleet connection: the coordinator serves its port with it, the
// worker dials with it.
type NetOptions struct {
	// TLS, when set, encrypts the connection with this config. On the
	// coordinator it is the server config (LoadServerTLS /
	// SelfSignedTLS build one); on the worker the client config
	// (ClientTLS). Plaintext peers on a TLS endpoint fail the
	// handshake and are rejected before any frame is interpreted.
	TLS *tls.Config
	// AuthKey, when non-empty, is the fleet's shared secret: the
	// coordinator challenges every connection with a nonce and admits
	// only hellos carrying HMAC-SHA256(AuthKey, nonce); the worker
	// answers the challenge with it.
	AuthKey string
	// HandshakeTimeout bounds the challenge → hello → trace-have
	// exchange (and the TLS handshake under it); <= 0 selects 30 s.
	// Without it, a plaintext peer and a TLS peer would deadlock
	// waiting for each other's opening bytes.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds every post-handshake frame write. A
	// blackholed peer — half-open TCP, a partition, a receiver that
	// stopped draining — otherwise blocks the writer forever once the
	// kernel buffers fill, wedging coordinator dispatch (or a worker's
	// result writer) on a single dead connection. When the deadline
	// fires the session is failed and its cells requeued, exactly like
	// any other transport death. <= 0 selects 2 minutes.
	WriteTimeout time.Duration
	// Dial, when set, replaces net.Dial for the worker's outbound
	// connection — the injection seam the netchaos tests (and any
	// custom transport) use. TLS, when configured, is layered on top
	// of the dialed connection.
	Dial func(network, address string) (net.Conn, error)
	// Wrap, when set, wraps every raw connection — dialed on the
	// worker, accepted on the coordinator — before TLS is layered on
	// top. netchaos.Chaos.Wrap plugs in here to inject deterministic
	// transport faults under the real protocol stack.
	Wrap func(net.Conn) net.Conn
}

// handshakeTimeout resolves the default.
func (n NetOptions) handshakeTimeout() time.Duration {
	if n.HandshakeTimeout <= 0 {
		return 30 * time.Second
	}
	return n.HandshakeTimeout
}

// writeTimeout resolves the default post-handshake write deadline.
func (n NetOptions) writeTimeout() time.Duration {
	if n.WriteTimeout <= 0 {
		return 2 * time.Minute
	}
	return n.WriteTimeout
}

// wrapListener applies NetOptions.Wrap to every accepted connection,
// under the TLS listener when both are configured (faults and custom
// transports sit below the record layer, like the real network).
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(conn), nil
}

// CacheOptions bounds a worker's durable state: the three caches that
// make a rejoining worker cheap. Zero values select the defaults; the
// bounds exist so a long-lived redial worker's footprint stays finite,
// and eviction is always safe because every entry is a pure function
// of its key.
type CacheOptions struct {
	// Results bounds the evaluated-cell result cache (entries); <= 0
	// selects DefaultResultCacheSize.
	Results int
	// Datasets bounds the per-(Config, trace ref) dataset cache;
	// <= 0 selects the experiments package default (16).
	Datasets int
	// Traces bounds the content-addressed trace store; <= 0 selects
	// the experiments package default (64). An evicted trace degrades
	// the affected cells to coordinator-side fallback; it never
	// changes a result.
	Traces int
}
