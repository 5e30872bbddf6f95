module mto/bench

go 1.22

require mto v0.0.0

replace mto => ../
