package telemetry

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func testGatherer() Gatherer {
	return GathererFunc(func() []Metric {
		var h Histogram
		h.Record(2)
		return []Metric{
			{Name: "x_total", Help: "X.", Kind: KindCounter, Value: 3},
			{Name: "x_seconds", Kind: KindHistogram, Hist: h.Snapshot(), Scale: 1e-9},
		}
	})
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(testGatherer()))
	defer srv.Close()

	code, ctype, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status = %d", code)
	}
	if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
		t.Errorf("/metrics content-type = %q, want %q", ctype, want)
	}
	if !strings.Contains(body, "x_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, `x_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("/metrics missing histogram:\n%s", body)
	}
}
