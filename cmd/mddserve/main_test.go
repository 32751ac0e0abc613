package main

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/mddserve"
)

func validServeConfig() mddserve.Config {
	return mddserve.Config{
		Workers:           2,
		Shards:            4,
		QueueSize:         16,
		PerTenantInflight: 8,
		MaxSources:        512,
		MaxReceivers:      256,
		MaxNt:             512,
	}
}

func TestValidateConfig(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*mddserve.Config)
		wantErr string // "" means the config must be accepted
	}{
		{"defaults", func(c *mddserve.Config) {}, ""},
		{"zero workers", func(c *mddserve.Config) { c.Workers = 0 }, "-workers"},
		{"negative workers", func(c *mddserve.Config) { c.Workers = -3 }, "-workers"},
		{"zero shards", func(c *mddserve.Config) { c.Shards = 0 }, "-shards"},
		{"negative shards", func(c *mddserve.Config) { c.Shards = -1 }, "-shards"},
		{"zero queue", func(c *mddserve.Config) { c.QueueSize = 0 }, "-queue"},
		{"zero tenant inflight", func(c *mddserve.Config) { c.PerTenantInflight = 0 }, "-tenant-inflight"},
		{"zero max sources", func(c *mddserve.Config) { c.MaxSources = 0 }, "-max-sources"},
		{"zero max receivers", func(c *mddserve.Config) { c.MaxReceivers = 0 }, "-max-receivers"},
		{"zero max nt", func(c *mddserve.Config) { c.MaxNt = 0 }, "-max-nt"},
		{"negative store budget", func(c *mddserve.Config) { c.StoreBudget = -1 }, "-store-budget"},
		{"budget without dir", func(c *mddserve.Config) { c.StoreBudget = 1 << 20 }, "-store-dir"},
		{"budget with dir", func(c *mddserve.Config) {
			c.StoreBudget = 1 << 20
			c.StoreDir = t.TempDir()
		}, ""},
		{"zero budget means default", func(c *mddserve.Config) { c.StoreBudget = 0 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validServeConfig()
			tc.mutate(&cfg)
			err := validateConfig(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateConfig(%+v) = %v, want nil", cfg, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateConfig(%+v) = nil, want error naming %s", cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateConfig error %q does not name the offending flag %s", err, tc.wantErr)
			}
		})
	}
}

// TestHTTPServerDeadlines pins the listener's connection deadlines: a
// bounded wait for request headers and for idle keep-alives, and no
// write deadline, which would cut long-lived NDJSON event streams.
func TestHTTPServerDeadlines(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want unset so event streams can outlive it", srv.WriteTimeout)
	}
}
