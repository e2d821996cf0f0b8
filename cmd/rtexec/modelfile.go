package main

import (
	"bytes"
	"fmt"
	"io"

	"edgeinfer/internal/atomicfile"
	"edgeinfer/internal/framed"
	"edgeinfer/internal/frameworks"
)

// Framework model files on disk: a tiny container holding the format
// tag, the architecture text and the weight payload, each as
// length-prefixed bytes after the magic.

const modelMagic = "EDGEMDL1"

// writeModel serializes a frameworks.Model to path.
func writeModel(path string, m frameworks.Model) error {
	return framed.SaveFile(path, func(w io.Writer) error {
		fw := framed.NewWriter(w)
		fw.Magic(modelMagic)
		fw.String(string(m.Format))
		fw.Bytes(m.Arch)
		fw.Bytes(m.Weights)
		return fw.Flush()
	})
}

// readModel parses a container written by writeModel. No chunk can be
// longer than the file it came in.
func readModel(data []byte) (frameworks.Model, error) {
	fr := framed.NewReader(bytes.NewReader(data))
	fr.Magic(modelMagic)
	m := frameworks.Model{
		Format:  frameworks.Format(fr.Bytes("format tag", len(data))),
		Arch:    fr.Bytes("arch", len(data)),
		Weights: fr.Bytes("weights", len(data)),
	}
	if err := fr.Err(); err != nil {
		return frameworks.Model{}, fmt.Errorf("not an edgeinfer model file: %w", err)
	}
	return m, nil
}

// writeFile writes artifacts crash-safely (temp file + rename) with
// conventional permissions.
func writeFile(path string, data []byte) error {
	return atomicfile.WriteFile(path, data, 0o644)
}
