module persistmem

go 1.23
