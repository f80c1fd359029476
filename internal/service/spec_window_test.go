package service

import (
	"net/http"
	"reflect"
	"testing"
)

// TestSpecWindowQueryRoundTrip pins the windowed switch end to end: HTTP
// query → JobSpec → Normalize → core.Options.
func TestSpecWindowQueryRoundTrip(t *testing.T) {
	r, _ := http.NewRequest(http.MethodPost, "/jobs?metric=er&threshold=0.01&windowed=1", nil)
	spec, err := specFromQuery(r)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Windowed {
		t.Fatalf("query did not reach the spec: %+v", spec)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Windowed {
		t.Fatalf("spec did not reach the options: %+v", opts)
	}
	opts2, _ := spec.Options()
	if !reflect.DeepEqual(opts, opts2) {
		t.Fatal("Options is not deterministic on a normalized spec")
	}

	if r, _ = http.NewRequest(http.MethodPost, "/jobs?metric=er&windowed=yes", nil); r != nil {
		if _, err := specFromQuery(r); err == nil {
			t.Fatal("bad windowed= value accepted")
		}
	}
}
