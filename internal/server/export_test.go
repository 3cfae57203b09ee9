package server

import "bpush/internal/model"

// Current returns the current version of an item.
func (s *Server) Current(id model.ItemID) (model.Version, error) {
	if err := s.checkItem(id); err != nil {
		return model.Version{}, err
	}
	vs := s.items[id-1].versions
	return vs[len(vs)-1], nil
}
