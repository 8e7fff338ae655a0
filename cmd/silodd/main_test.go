package main

import "testing"

// Bad flags must be rejected before any listener binds.
func TestFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-scheduler", "Bogus"},
		{"-system", "Bogus"},
		{"-cache", "notasize"},
		{"-remote", "alsonotasize"},
		{"-tenants", "nocolon"},
		{"-tenants", "acme:notaclass"},
		{"-tenants", "acme:critical:gpus=3x"},
		{"-tenants", "acme:critical:gpus=1e3"},
		{"-tenants", "acme:critical:gpus=-2"},
		{"-tenants", "acme:critical:cache=NaNGB"},
		{"-cache", "InfTB"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
