package main

import (
	"strings"
	"testing"
)

func TestCheckFlowFlags(t *testing.T) {
	for _, c := range []struct {
		flow, metric       string
		maxError, maxDepth float64
		flag               string // named in the error; "" for no error
	}{
		{"alsrac", "maxerr", 0.002, 1.2, ""},
		{"sasimi", "nmed", 0.002, 1.2, ""},
		{"mcmc", "er", 0, 0, ""},
		{"mcmc", "nmed", 0.002, 0, "-maxerror"},
		{"MCMC", "nmed", 0.002, 0, "-maxerror"},
		{"mcmc", "maxerr", 0, 0, "-metric maxerr"},
		{"mcmc", " MaxErr ", 0, 0, "-metric maxerr"},
		{"mcmc", "mred", 0, 1.2, "-maxdepth"},
	} {
		err := checkFlowFlags(c.flow, c.metric, c.maxError, c.maxDepth)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag)):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.flag)
		}
	}
}
