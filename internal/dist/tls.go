package dist

// TLS plumbing for the coordinator port. The seam is a plain
// *tls.Config on both CoordinatorOptions and WorkerOptions — callers
// with real PKI load their own material through LoadServerTLS /
// ClientTLS, while tests and single-operator fleets use SelfSignedTLS
// for an ephemeral in-memory pair. Confidentiality comes from TLS;
// worker authentication comes from the HMAC challenge in the
// handshake, so a fleet running with InsecureSkipVerify (the
// -dist-tls-auto spawn path, where workers cannot know the ephemeral
// cert) still admits only key holders.

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"os"
	"time"
)

// SelfSignedTLS generates an ephemeral ECDSA certificate for loopback
// and localhost and returns a matching (server, client) config pair:
// the client config pins the generated certificate as its only root,
// so the pair authenticates the server end properly despite being
// self-signed.
func SelfSignedTLS() (server, client *tls.Config, err error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: generating TLS key: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return nil, nil, fmt.Errorf("dist: generating TLS serial: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{CommonName: "trafficreshape-dist"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
		DNSNames:              []string{"localhost"},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: creating TLS certificate: %w", err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: parsing TLS certificate: %w", err)
	}
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	server = &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
	client = &tls.Config{RootCAs: pool, ServerName: "localhost", MinVersion: tls.VersionTLS12}
	return server, client, nil
}

// LoadServerTLS builds a coordinator TLS config from PEM cert and key
// files.
func LoadServerTLS(certFile, keyFile string) (*tls.Config, error) {
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("dist: loading TLS keypair: %w", err)
	}
	return &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}, nil
}

// ClientTLS builds a worker TLS config. caFile, when non-empty, pins
// the coordinator's certificate (or its CA); insecure skips
// verification entirely — confidentiality without server authn, for
// fleets that rely on the HMAC challenge for identity.
func ClientTLS(caFile string, insecure bool) (*tls.Config, error) {
	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if insecure {
		cfg.InsecureSkipVerify = true
		return cfg, nil
	}
	if caFile != "" {
		pemBytes, err := os.ReadFile(caFile)
		if err != nil {
			return nil, fmt.Errorf("dist: reading TLS CA: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemBytes) {
			return nil, fmt.Errorf("dist: no certificates in %s", caFile)
		}
		cfg.RootCAs = pool
	}
	return cfg, nil
}
