package client

import (
	"bytes"
	"testing"
)

func TestParseReadLine(t *testing.T) {
	data, err := parseReadLine("OK 00ff10")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{0x00, 0xff, 0x10}) {
		t.Fatalf("parsed %x", data)
	}
	if _, err := parseReadLine("ERR address 9 out of range"); err == nil {
		t.Error("ERR line accepted")
	} else if err.Error() != "client: address 9 out of range" {
		t.Errorf("error = %q", err)
	}
	if _, err := parseReadLine("OK zz"); err == nil {
		t.Error("bad hex accepted")
	}
}

func TestParseOKLine(t *testing.T) {
	if err := parseOKLine("OK"); err != nil {
		t.Error(err)
	}
	if err := parseOKLine("OK 5"); err != nil {
		t.Error(err)
	}
	if err := parseOKLine("ERR boom"); err == nil {
		t.Error("ERR line accepted")
	}
}
