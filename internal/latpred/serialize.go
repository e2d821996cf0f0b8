package latpred

import (
	"fmt"
	"io"
	"math"

	"edgeinfer/internal/framed"
	"edgeinfer/internal/kernels"
)

// Predictor files follow the timing cache's hardened format discipline
// (documented next to it in DESIGN.md §5): a magic header, a bounded
// family count, then per family its id, row count, residual and the
// three feature-width-prefixed float64 vectors (weights, means, stds).
// Families are written in sorted order so identical models serialize to
// identical bytes. Files are untrusted input on load: bad magic, a
// foreign feature width, hostile counts, or non-finite values all fail
// with an error after bounded allocation.
const modelMagic = "EDGELP01"

const maxModelFamilies = 64

// Save serializes the model.
func (m *Model) Save(w io.Writer) error {
	fw := framed.NewWriter(w)
	fw.Magic(modelMagic)
	fw.F64(m.MaxResidualLog)
	fams := m.Families()
	fw.U32(uint32(len(fams)))
	for _, fam := range fams {
		fm := m.families[fam]
		fw.U8(uint8(fam))
		fw.U32(uint32(fm.Rows))
		fw.F64(fm.ResidualLog)
		fw.U32(NumFeatures)
		for _, vec := range [3]*[NumFeatures]float64{&fm.Weights, &fm.Mean, &fm.Std} {
			for _, v := range vec {
				fw.F64(v)
			}
		}
	}
	return fw.Flush()
}

// Load deserializes a model. Predictor files are untrusted input:
// truncated, bit-flipped or hostile streams return an error — never a
// panic, and never an allocation driven by an unvalidated length field.
func Load(r io.Reader) (*Model, error) {
	fr := framed.NewReader(r)
	fr.Magic(modelMagic)
	m := &Model{MaxResidualLog: fr.F64(), families: map[kernels.Family]*FamilyModel{}}
	count := fr.Count("model families", maxModelFamilies)
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("latpred: read model: %w", err)
	}
	if !finite(m.MaxResidualLog) || m.MaxResidualLog < 0 {
		return nil, fmt.Errorf("latpred: model has invalid confidence gate %v", m.MaxResidualLog)
	}
	for ; count > 0; count-- {
		fam := kernels.Family(fr.U8())
		fm := &FamilyModel{Rows: int(fr.U32()), ResidualLog: fr.F64()}
		width := fr.U32()
		if err := fr.Err(); err != nil {
			return nil, fmt.Errorf("latpred: read model family: %w", err)
		}
		if _, ok := kernels.ParseFamily(fam.String()); !ok {
			return nil, fmt.Errorf("latpred: model has unknown family id %d", uint8(fam))
		}
		if _, dup := m.families[fam]; dup {
			return nil, fmt.Errorf("latpred: model has duplicate family %s", fam)
		}
		if !finite(fm.ResidualLog) || fm.ResidualLog < 0 {
			return nil, fmt.Errorf("latpred: model family %s has invalid residual %v", fam, fm.ResidualLog)
		}
		if width != NumFeatures {
			return nil, fmt.Errorf("latpred: model family %s has feature width %d, this build expects %d",
				fam, width, NumFeatures)
		}
		for _, vec := range [3]*[NumFeatures]float64{&fm.Weights, &fm.Mean, &fm.Std} {
			for j := range vec {
				if vec[j] = fr.F64(); !finite(vec[j]) {
					return nil, fmt.Errorf("latpred: model family %s has non-finite coefficient", fam)
				}
			}
		}
		if err := fr.Err(); err != nil {
			return nil, fmt.Errorf("latpred: read model family %s: %w", fam, err)
		}
		for _, std := range fm.Std {
			if std <= 0 {
				return nil, fmt.Errorf("latpred: model family %s has non-positive std", fam)
			}
		}
		m.families[fam] = fm
	}
	return m, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
