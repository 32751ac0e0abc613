package mddserve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/testkit/leak"
)

// TestHandlerRejectsExtremeIntegers submits every integer the API
// decodes from a request at its extremes through Handler(): each must be
// refused at admission (400 or 413), never queued. The wrapping specs
// multiply to 2⁶⁴ ≡ 0 and 2⁶³ ≡ −2⁶³ grid points, which a cap compared
// against the product would admit.
func TestHandlerRejectsExtremeIntegers(t *testing.T) {
	leak.Check(t)
	cfg := testConfig()
	cfg.QueueSize = 256
	cfg.PerTenantInflight = 256
	s := New(cfg)
	defer s.Close()
	s.Pause() // an admitted row must never run
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusAccepted {
			// Cancel while still queued so Close never runs the job.
			var sr SubmitResponse
			if json.Unmarshal(b, &sr) == nil {
				s.Cancel(sr.ID)
			}
		}
		return resp.StatusCode, string(b)
	}
	// spec renders a valid base mdd spec with the named fields
	// (dataset ones prefixed "dataset/") overridden by raw JSON values.
	spec := func(kv ...string) string {
		ds := map[string]json.RawMessage{"nsx": json.RawMessage("4"), "nsy": json.RawMessage("3"),
			"nrx": json.RawMessage("3"), "nry": json.RawMessage("3"), "nt": json.RawMessage("32")}
		top := map[string]any{"type": JobMDD, "dataset": ds}
		for i := 0; i < len(kv); i += 2 {
			if name, ok := strings.CutPrefix(kv[i], "dataset/"); ok {
				ds[name] = json.RawMessage(kv[i+1])
			} else {
				top[kv[i]] = json.RawMessage(kv[i+1])
			}
		}
		b, err := json.Marshal(top)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	const two32, two62 = "4294967296", "4611686018427387904"
	maxInt := strconv.Itoa(math.MaxInt)
	overInt := "9223372036854775808" // MaxInt+1 does not decode into an int
	bodies := map[string]string{
		"nsx=nsy=2^32":   spec("dataset/nsx", two32, "dataset/nsy", two32),
		"nsx=2,nsy=2^62": spec("dataset/nsx", "2", "dataset/nsy", two62),
		"nrx=nry=2^32":   spec("dataset/nrx", two32, "dataset/nry", two32),
		"nrx=2,nry=2^62": spec("dataset/nrx", "2", "dataset/nry", two62),
	}
	extremes := func(field string, cap int, zeroValid bool) {
		vals := []string{"-1", strconv.Itoa(cap + 1), maxInt, overInt}
		// 0 selects the default for nb, iters and reps, and is the
		// first virtual source: it is not an extreme for those fields.
		if !zeroValid {
			vals = append(vals, "0")
		}
		for _, v := range vals {
			bodies[field+"="+v] = spec(field, v)
		}
	}
	lim := s.cfg
	extremes("dataset/nsx", lim.MaxSources, false)
	extremes("dataset/nsy", lim.MaxSources, false)
	extremes("dataset/nrx", lim.MaxReceivers, false)
	extremes("dataset/nry", lim.MaxReceivers, false)
	extremes("dataset/nt", lim.MaxNt, false)
	bodies["nt=2*cap"] = spec("dataset/nt", strconv.Itoa(2*lim.MaxNt)) // a power of two past the cap
	extremes("nb", max(lim.MaxSources, lim.MaxReceivers), true)
	extremes("vs", 3*3-1, true) // the base grid has 3x3 receivers
	extremes("iters", lim.MaxIters, true)
	extremes("reps", lim.MaxReps, true)

	for name, body := range bodies {
		code, resp := post(body)
		if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 400 or 413 (body %s; response %s)", name, code, body, strings.TrimSpace(resp))
		}
	}
	if code, resp := post(spec("vs", "8")); code != http.StatusAccepted {
		t.Fatalf("in-range base spec: status %d (%s)", code, resp)
	}

	// The events stream's ?from= is the one integer decoded from a
	// query. Past the end of the log it is a valid resume point: on a
	// terminal job the stream ends at once with no events.
	id, err := s.Submit(testSpec(JobCompress), "t")
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(id)
	for _, from := range []string{"-1", overInt, "x", maxInt} {
		resp, err := http.Get(srv.URL + "/api/v1/jobs/" + id + "/events?from=" + from)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := http.StatusBadRequest
		if from == maxInt {
			want = http.StatusOK
			if len(b) != 0 {
				t.Errorf("from=%s: stream carried %q, want no events", from, b)
			}
		}
		if resp.StatusCode != want {
			t.Errorf("from=%s: status %d, want %d", from, resp.StatusCode, want)
		}
	}
}
