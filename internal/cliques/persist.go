package cliques

import (
	"encoding/json"
	"fmt"
)

// Partitions are planning artifacts computed once (model selection is the
// expensive NP-hard step) and reused across deployments and experiments;
// this file gives them a stable JSON form.

// partitionJSON is the wire form of a Partition.
type partitionJSON struct {
	Cliques []cliqueJSON `json:"cliques"`
}

type cliqueJSON struct {
	Members []int   `json:"members"`
	Root    int     `json:"root"`
	M       float64 `json:"m"`
	Intra   float64 `json:"intra"`
	Sink    float64 `json:"sink"`
}

// MarshalJSON implements json.Marshaler.
func (p *Partition) MarshalJSON() ([]byte, error) {
	w := partitionJSON{Cliques: make([]cliqueJSON, len(p.Cliques))}
	for i, c := range p.Cliques {
		w.Cliques[i] = cliqueJSON{
			Members: c.Members, Root: c.Root, M: c.M, Intra: c.Intra, Sink: c.Sink,
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Partition) UnmarshalJSON(data []byte) error {
	var w partitionJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("cliques: %w", err)
	}
	p.Cliques = p.Cliques[:0]
	for i, c := range w.Cliques {
		if len(c.Members) == 0 {
			return fmt.Errorf("cliques: json clique %d has no members", i)
		}
		p.Cliques = append(p.Cliques, Clique{
			Members: c.Members, Root: c.Root, M: c.M, Intra: c.Intra, Sink: c.Sink,
		})
	}
	return nil
}
