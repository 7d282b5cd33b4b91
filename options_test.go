package castle_test

// options_test.go pins up-front Options validation: every field with an
// invalid value comes back as an error from each entry point — never a
// panic out of an engine constructor, never a silent fallback to a default.

import (
	"context"
	"testing"

	castle "castle"
)

func TestOptionsValidation(t *testing.T) {
	t.Parallel()
	db := castle.GenerateSSB(0.001, 1)
	sql := castle.SSBQueries()[0].SQL

	cases := []struct {
		name string
		opt  castle.Options
		// explainIgnores marks a field ExplainPlacement overrides itself.
		explainIgnores bool
	}{
		{name: "Device", opt: castle.Options{Device: castle.Device(7)}, explainIgnores: true},
		{name: "Placement", opt: castle.Options{Placement: castle.Placement(5)}},
		{name: "Shape", opt: castle.Options{Shape: castle.PlanShape(9)}},
		{name: "MAXVL", opt: castle.Options{MAXVL: -1}},
		{name: "MKSBufferBytes negative", opt: castle.Options{MKSBufferBytes: -1}},
		{name: "MKSBufferBytes below one key", opt: castle.Options{MKSBufferBytes: 1}},
		{name: "Parallelism", opt: castle.Options{Parallelism: -1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			entries := []struct {
				name string
				call func() error
			}{
				{"QueryContext", func() error {
					_, _, err := db.QueryContext(context.Background(), sql, tc.opt)
					return err
				}},
				{"Route", func() error {
					_, err := db.Route(sql, tc.opt)
					return err
				}},
				{"ExplainPlacement", func() error {
					_, err := db.ExplainPlacement(sql, tc.opt)
					return err
				}},
				{"QueryGroupContext", func() error {
					o := tc.opt
					o.ScanSharing = true
					_, _, err := db.QueryGroupContext(context.Background(), []string{sql, sql}, o)
					return err
				}},
			}
			for _, e := range entries {
				if e.name == "ExplainPlacement" && tc.explainIgnores {
					continue
				}
				if err, panicked := callNoPanic(e.call); panicked != nil {
					t.Errorf("%s panicked on %+v: %v", e.name, tc.opt, panicked)
				} else if err == nil {
					t.Errorf("%s accepted %+v", e.name, tc.opt)
				}
			}
		})
	}

	t.Run("valid overrides", func(t *testing.T) {
		t.Parallel()
		opt := castle.Options{MAXVL: 8192, MKSBufferBytes: 64, Shape: castle.ShapeLeftDeep}
		if _, _, err := db.QueryContext(context.Background(), sql, opt); err != nil {
			t.Fatalf("QueryContext rejected %+v: %v", opt, err)
		}
	})
}

// callNoPanic runs call and returns its error, or what it panicked with.
func callNoPanic(call func() error) (err error, panicked any) {
	defer func() { panicked = recover() }()
	return call(), nil
}
