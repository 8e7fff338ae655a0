package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden runs the walkthrough and compares what it
// prints, byte for byte, with testdata/stdout.golden. After an intended
// change, regenerate the file with
// `go run ./examples/quickstart > examples/quickstart/testdata/stdout.golden`.
func TestOutputMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	stdout = &got
	defer func() { stdout = os.Stdout }()
	main()
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("quickstart output differs from testdata/stdout.golden:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
